"""Remission: reverting hijacker changes after recovery — Section 6.4.

"The remission process includes restoring hijacker-deleted content,
removing the hijacker-added content, and resetting all account options
to their original state."  The paper found users preferred content
recovery as an *optional last step* rather than a fully automatic one,
so the service takes an opt-in flag; settings, however, are always
reviewed/cleared (a lingering doppelganger filter keeps the attack
alive).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict

from repro.logs.events import RemissionEvent
from repro.logs.store import LogStore
from repro.world.accounts import Account
from repro.world.mailbox import MailboxSnapshot


@dataclass
class RemissionService:
    """Snapshots mailboxes pre-incident and restores them post-recovery."""

    rng: random.Random
    store: LogStore
    #: Fraction of recovered users who opt into content restoration.
    content_opt_in_rate: float = 0.80
    _snapshots: Dict[str, MailboxSnapshot] = field(default_factory=dict)

    def snapshot(self, account: Account, now: int) -> None:
        """Capture pre-incident state (the provider's backup).

        Taken when the hijacking is first suspected; the earliest
        snapshot wins — a later one would capture hijacker damage.
        """
        if account.account_id not in self._snapshots:
            self._snapshots[account.account_id] = account.mailbox.snapshot(now)

    def remit(self, account: Account, now: int) -> RemissionEvent:
        """Run remission after a successful recovery."""
        settings_reverted = account.clear_hijacker_settings(now)
        opted_in = self.rng.random() < self.content_opt_in_rate
        messages_restored = 0
        snapshot = self._snapshots.pop(account.account_id, None)
        if opted_in and snapshot is not None:
            messages_restored = account.mailbox.restore_from(snapshot)
        event = RemissionEvent(
            timestamp=now,
            account_id=account.account_id,
            settings_reverted=settings_reverted,
            messages_restored=messages_restored,
            user_opted_in=opted_in,
        )
        self.store.append(event)
        return event
