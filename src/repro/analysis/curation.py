"""Curation: the human reviewers behind the labeled samples.

The paper leans on manual curation throughout ("we are forced to
manually curate data points sampled from a much larger, noisy source to
have precise ground truth").  The helpers here stand in for the
reviewers who read a message and judged it: they see only its visible
text, never the simulator's ``MessageKind`` label.  The verdicts the
authors applied to log records (hijacker IP lists, session verdicts) are
the actor-attributed datasets of :mod:`repro.analysis.datasets`.
"""

from __future__ import annotations

from repro.scams.classifier import MessageCategory, classify_text
from repro.world.messages import EmailMessage


def review_message(message: EmailMessage) -> MessageCategory:
    """The "manual reviewer" for one message.

    Judges text (subject + body + visible keywords), exactly what a
    human reviewer would see.  Keywords join the haystack because real
    message bodies contain them; our organic messages store them
    separately to bound memory.
    """
    body = " ".join((message.body,) + message.keywords)
    return classify_text(message.subject, body)


def review_phishing_target(message: EmailMessage) -> str:
    """Categorize which account type a phishing message is after.

    Mirrors the Table 2 manual review: marker phrases in the visible
    text decide the bucket.
    """
    haystack = " ".join(
        (message.subject.lower(), message.body.lower())
        + tuple(k.lower() for k in message.keywords)
    )
    for target, markers in (
        ("Bank", ("bank", "billing", "statement")),
        ("App Store", ("app store", "purchase")),
        ("Social network", ("friend", "profile")),
        ("Mail", ("mail",)),
    ):
        if any(marker in haystack for marker in markers):
            return target
    return "Other"
