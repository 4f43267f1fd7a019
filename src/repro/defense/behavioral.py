"""Account behavioral risk analysis (Section 8.2).

The paper argues behavioral detection is "important and needed, but …
a last resort": by the time in-account behavior looks anomalous, the
hijacker has already read the mail.  Our analyzer watches the activity a
session generates — searches that match the hijacker playbook, security-
settings churn, mass deletion, high-fan-out sends — and accumulates a
score per account session.  Crossing the threshold raises a behavioral
hijack flag, which the abuse-response path turns into a suspension.

The difficulty the paper stresses (hijacker behavior barely differs from
owner behavior) is real here too: owners also search their inboxes and
change settings, so each signal carries a false-positive cost that the
threshold must balance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.logs.events import HijackFlagEvent
from repro.logs.store import LogStore

#: Search tokens that resemble the hijacker playbook (finance-heavy).
_PLAYBOOK_TOKENS = (
    "wire transfer", "bank", "transferencia", "western union", "moneygram",
    "account statement", "账单", "password",
)


@dataclass
class BehavioralRiskAnalyzer:
    """Per-session activity scoring."""

    store: LogStore
    flag_threshold: float = 1.0
    #: Weights are deliberately gentle: owners also search for "bank
    #: transfer", install filters, and send group mail, so each signal
    #: alone proves little.  A typical exploited account crosses the
    #: threshold only once searches, wide sends, and settings churn have
    #: all occurred — i.e. usually *after* the damage, the paper's
    #: "behavioral analysis is a last resort" point.
    weight_playbook_search: float = 0.12
    weight_settings_change: float = 0.25
    weight_mass_delete: float = 0.80
    weight_high_fanout_send: float = 0.25
    weight_filter_or_replyto: float = 0.30
    #: score per (account_id) for the current session window.
    _scores: Dict[str, float] = field(default_factory=dict)
    _flagged: Dict[str, int] = field(default_factory=dict)

    def begin_session(self, account_id: str) -> None:
        self._scores[account_id] = 0.0

    def note_search(self, account_id: str, query: str, now: int) -> None:
        lowered = query.lower()
        if any(token in lowered for token in _PLAYBOOK_TOKENS):
            self._bump(account_id, self.weight_playbook_search, now)

    def note_settings_change(self, account_id: str, setting: str, now: int) -> None:
        if setting == "mass_delete":
            self._bump(account_id, self.weight_mass_delete, now)
        elif setting in ("mail_filter", "reply_to"):
            self._bump(account_id, self.weight_filter_or_replyto, now)
        else:
            self._bump(account_id, self.weight_settings_change, now)

    def note_send(self, account_id: str, recipient_count: int, now: int) -> None:
        if recipient_count >= 10:
            self._bump(account_id, self.weight_high_fanout_send, now)

    def is_flagged(self, account_id: str) -> bool:
        return account_id in self._flagged

    def flagged_at(self, account_id: str) -> int:
        return self._flagged[account_id]

    def flags(self) -> Tuple[str, ...]:
        return tuple(sorted(self._flagged))

    def _bump(self, account_id: str, weight: float, now: int) -> None:
        score = self._scores.get(account_id, 0.0) + weight
        self._scores[account_id] = score
        if score >= self.flag_threshold and account_id not in self._flagged:
            self._flagged[account_id] = now
            self.store.append(HijackFlagEvent(
                timestamp=now, account_id=account_id, source="behavioral",
            ))
