"""Accounts, credentials, recovery options, and the account state machine.

An account joins a user to an address, a password, recovery options, and a
mailbox.  Its state machine captures what the defense and recovery stacks
do to it: active → (hijacker changes password) locked-out-of → (abuse
detection) suspended → (recovery claim verified) restored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.net.email_addr import EmailAddress
from repro.net.phones import PhoneNumber
from repro.util.compat import SLOT_KWARGS
from repro.world.mailbox import Mailbox
from repro.world.users import User


class AccountState(enum.Enum):
    """Lifecycle states an account moves through during an incident."""

    ACTIVE = "active"
    SUSPENDED = "suspended"      # proactively disabled by abuse detection
    RECOVERED = "recovered"      # returned to owner, pending remission

    def can_login(self) -> bool:
        return self is not AccountState.SUSPENDED


@dataclass(frozen=True, **SLOT_KWARGS)
class Credential:
    """A username/password pair as it travels through the underworld.

    Phishing pages capture these; hijacker queues consume them.  The
    password is stored as a salted digest plus a plaintext echo because
    the simulator must *replay* logins (and model trivial-variant retries,
    Section 5.1's 75% success including retries).
    """

    address: EmailAddress
    password: str
    captured_at: int
    source_page_id: Optional[str] = None
    is_decoy: bool = False


@dataclass(**SLOT_KWARGS)
class RecoveryOptions:
    """Out-of-band recovery channels on file for an account.

    Tracks both the legitimate owner's settings and hijacker tampering:
    the recovery analysis (Figure 10) and retention analysis (Section 5.4)
    need to distinguish owner-set from hijacker-set values.
    """

    phone: Optional[PhoneNumber] = None
    secondary_email: Optional[EmailAddress] = None
    secondary_email_recycled: bool = False
    has_secret_question: bool = True
    changed_by_hijacker: bool = False


@dataclass(**SLOT_KWARGS)
class Account:
    """One account at the primary provider (slotted: one per user)."""

    account_id: str
    owner: User
    address: EmailAddress
    password: str
    recovery: RecoveryOptions
    mailbox: Mailbox
    state: AccountState = AccountState.ACTIVE
    created_at: int = 0
    last_activity_at: int = 0
    two_factor_phone: Optional[PhoneNumber] = None
    two_factor_enabled_by_hijacker: bool = False
    #: Hijacker-set Reply-To on outgoing mail (doppelganger diversion).
    hijacker_reply_to: Optional[EmailAddress] = None
    password_changed_by_hijacker: bool = False
    history: List[str] = field(default_factory=list)

    def verify_password(self, attempt: str) -> bool:
        return attempt == self.password

    def set_password(self, new_password: str, by_hijacker: bool, now: int) -> None:
        if not new_password:
            raise ValueError("password cannot be empty")
        self.password = new_password
        self.password_changed_by_hijacker = by_hijacker
        self._note(now, f"password changed (hijacker={by_hijacker})")

    def suspend(self, now: int) -> None:
        self.state = AccountState.SUSPENDED
        self._note(now, "suspended by abuse detection")

    def restore_to_owner(self, now: int) -> None:
        self.state = AccountState.RECOVERED
        self.password_changed_by_hijacker = False
        self._note(now, "restored to owner")

    def reactivate(self, now: int) -> None:
        self.state = AccountState.ACTIVE
        self._note(now, "reactivated")

    def mark_activity(self, now: int) -> None:
        self.last_activity_at = max(self.last_activity_at, now)

    def enable_two_factor(self, phone: PhoneNumber, by_hijacker: bool, now: int) -> None:
        self.two_factor_phone = phone
        self.two_factor_enabled_by_hijacker = by_hijacker
        self._note(now, f"two-factor enabled (hijacker={by_hijacker})")

    def clear_hijacker_settings(self, now: int) -> int:
        """Remission: revert hijacker-applied settings; returns count."""
        reverted = 0
        if self.two_factor_enabled_by_hijacker:
            self.two_factor_phone = None
            self.two_factor_enabled_by_hijacker = False
            reverted += 1
        if self.hijacker_reply_to is not None:
            self.hijacker_reply_to = None
            reverted += 1
        if self.recovery.changed_by_hijacker:
            self.recovery.changed_by_hijacker = False
            reverted += 1
        reverted += self.mailbox.remove_hijacker_filters()
        if reverted:
            self._note(now, f"remission reverted {reverted} hijacker settings")
        return reverted

    def _note(self, now: int, what: str) -> None:
        self.history.append(f"t={now}: {what}")

    def __repr__(self) -> str:
        return f"Account({self.account_id}, {self.address}, {self.state.value})"
