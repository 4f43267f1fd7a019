"""Abuse response: turning detection flags into account actions.

When behavioral analysis (or a pile of user reports) flags an account as
hijacked, the provider "disable[s] the account … to prevent further
damage" (Section 6.1).  Suspension ends the hijacker's session, triggers
a notification, and starts the remediation clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.defense.behavioral import BehavioralRiskAnalyzer
from repro.defense.notifications import NotificationService
from repro.logs.events import SuspensionEvent
from repro.logs.store import LogStore
from repro.world.accounts import Account


@dataclass
class AbuseResponse:
    """Suspends accounts on detection and records why."""

    store: LogStore
    behavioral: BehavioralRiskAnalyzer
    notifications: NotificationService
    #: Suspending on pure behavioral score risks false positives, so the
    #: response waits for this many distinct user reports *or* a
    #: behavioral flag (whichever comes first).
    report_quorum: int = 3
    _report_counts: Dict[str, int] = field(default_factory=dict)
    suspended_accounts: List[str] = field(default_factory=list)

    def note_user_report(self, sender_account_id: Optional[str]) -> None:
        if sender_account_id is None:
            return
        self._report_counts[sender_account_id] = (
            self._report_counts.get(sender_account_id, 0) + 1
        )

    def should_suspend(self, account: Account) -> bool:
        if not account.state.can_login():
            return False
        if self.behavioral.is_flagged(account.account_id):
            return True
        return self._report_counts.get(account.account_id, 0) >= self.report_quorum

    def suspend(self, account: Account, reason: str, now: int) -> None:
        """Disable the account and notify the owner out-of-band."""
        if not account.state.can_login():
            return
        account.suspend(now)
        self.suspended_accounts.append(account.account_id)
        self.store.append(SuspensionEvent(
            timestamp=now, account_id=account.account_id, reason=reason,
        ))
        self.notifications.notify(account, "account_suspended", now)

    def sweep(self, accounts, now: int) -> int:
        """Suspend every account currently meeting the criteria."""
        count = 0
        for account in accounts:
            if self.should_suspend(account):
                reason = (
                    "behavioral_flag"
                    if self.behavioral.is_flagged(account.account_id)
                    else "user_reports"
                )
                self.suspend(account, reason, now)
                count += 1
        return count
