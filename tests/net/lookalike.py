"""The recipient's view of a lookalike address, for the tests that check
the generators in :mod:`repro.net.domains` and
:mod:`repro.hijacker.doppelganger` against it.

Every generated doppelganger must pass :func:`looks_like`, or the tactic
would not work on real contacts.
"""

from __future__ import annotations

from repro.net.email_addr import EmailAddress


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance (iterative two-row implementation)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(min(previous[j] + 1,        # deletion
                               current[j - 1] + 1,     # insertion
                               previous[j - 1] + cost))  # substitution
        previous = current
    return previous[-1]


def is_lookalike_domain(candidate: str, target: str) -> bool:
    """True when ``candidate`` plausibly impersonates ``target``.

    A lookalike either embeds the target's first label (``provider`` in
    ``provider-mail.example``) or is within edit distance 1 of the target.
    """
    if candidate == target:
        return False
    target_label = target.split(".", 1)[0]
    candidate_host = candidate.split(".", 1)[0]
    if target_label and target_label in candidate_host:
        return True
    return edit_distance(candidate, target) <= 1


def looks_like(candidate: EmailAddress, victim: EmailAddress) -> bool:
    """Would a recipient plausibly confuse ``candidate`` with ``victim``?"""
    if candidate == victim:
        return False
    if candidate.domain == victim.domain:
        return edit_distance(candidate.username, victim.username) <= 2
    return is_lookalike_domain(candidate.domain, victim.domain)
