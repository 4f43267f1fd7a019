"""Account-retention tactics and their evolution — Section 5.4.

To keep a scam alive for the one-to-two days it needs, hijackers lock the
victim out (password change), delay recovery (recovery-option changes),
hide their traces (filters diverting replies to Trash/Spam, a forged
Reply-To pointing at a doppelganger), and — in 2011 — mass-deleted mail
so recovered victims could not warn their contacts.

The longitudinal deltas the paper measures between October 2011 and
November 2012 are encoded as era profiles:

* mass deletion given a password change: 46% → 1.6% (the provider began
  restoring deleted content, so the tactic stopped paying),
* hijacker-initiated recovery-option changes: 60% → 21%,
* 2012-only: enrolling a hijacker phone as a second factor (quickly
  abandoned; the source of Figure 12's phone dataset).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.defense.behavioral import BehavioralRiskAnalyzer
from repro.defense.notifications import NotificationService
from repro.hijacker.doppelganger import Doppelganger, make_doppelganger
from repro.hijacker.groups import Era, HijackingCrew
from repro.logs.events import Actor, SettingsChangeEvent
from repro.logs.store import LogStore
from repro.net.phones import PhoneNumber, PhoneNumberPlan
from repro.util.ids import IdMinter
from repro.util.rng import weighted_choice
from repro.world.accounts import Account
from repro.world.mailbox import MailFilter
from repro.world.messages import Folder


@dataclass(frozen=True)
class RetentionProfile:
    """Tactic probabilities for one era."""

    era: Era
    password_change_rate: float = 0.50
    mass_delete_given_password_change: float = 0.46
    recovery_change_rate: float = 0.60
    mail_filter_rate: float = 0.15
    reply_to_rate: float = 0.26
    two_factor_lockout_rate: float = 0.0


ERA_PROFILES = {
    Era.Y2011: RetentionProfile(
        era=Era.Y2011,
        mass_delete_given_password_change=0.46,
        recovery_change_rate=0.60,
        two_factor_lockout_rate=0.0,
    ),
    Era.Y2012: RetentionProfile(
        era=Era.Y2012,
        mass_delete_given_password_change=0.016,
        recovery_change_rate=0.21,
        two_factor_lockout_rate=0.45,
    ),
    Era.Y2014: RetentionProfile(
        era=Era.Y2014,
        mass_delete_given_password_change=0.01,
        recovery_change_rate=0.20,
        two_factor_lockout_rate=0.0,  # abandoned after 2012
    ),
}


@dataclass
class RetentionReport:
    """Which tactics one incident applied."""

    changed_password: bool = False
    mass_deleted: bool = False
    deleted_count: int = 0
    changed_recovery: bool = False
    installed_filter: bool = False
    set_reply_to: bool = False
    enabled_two_factor: bool = False
    doppelganger: Optional[Doppelganger] = None


@dataclass
class RetentionPlaybook:
    """Applies era-appropriate retention tactics to a hijacked account."""

    rng: random.Random
    store: LogStore
    notifications: NotificationService
    behavioral: BehavioralRiskAnalyzer
    phone_plan: PhoneNumberPlan
    minter: IdMinter
    profile: RetentionProfile

    def apply(self, account: Account, crew: HijackingCrew,
              now: int) -> RetentionReport:
        """Run the tactic sequence; every action is logged and noted by
        the behavioral analyzer (tactics are detection signals too)."""
        report = RetentionReport()
        cursor = now

        if self.rng.random() < self.profile.password_change_rate:
            cursor += self.rng.randrange(0, 2)
            account.set_password(
                f"crew-{crew.name}-{self.rng.randrange(10**6)}",
                by_hijacker=True, now=cursor,
            )
            self._log_change(account, "password", cursor)
            self.notifications.notify(account, "password_change", cursor)
            report.changed_password = True

            if self.rng.random() < self.profile.mass_delete_given_password_change:
                cursor += 1
                report.deleted_count = account.mailbox.delete_all()
                report.mass_deleted = True
                self._log_change(account, "mass_delete", cursor,
                                 detail=str(report.deleted_count))

        if self.rng.random() < self.profile.recovery_change_rate:
            cursor += self.rng.randrange(0, 2)
            account.recovery.changed_by_hijacker = True
            setting = "recovery_email" if self.rng.random() < 0.6 else "recovery_phone"
            self._log_change(account, setting, cursor)
            self.notifications.notify(account, "recovery_change", cursor)
            report.changed_recovery = True

        wants_filter = self.rng.random() < self.profile.mail_filter_rate
        wants_reply_to = self.rng.random() < self.profile.reply_to_rate
        if wants_filter or wants_reply_to:
            report.doppelganger = make_doppelganger(self.rng, account.address)

        if wants_filter:
            cursor += self.rng.randrange(0, 2)
            account.mailbox.add_filter(MailFilter(
                filter_id=self.minter.mint("filter"),
                created_at=cursor,
                created_by_hijacker=True,
                forward_to=report.doppelganger.address,
                move_to=Folder.TRASH,
            ))
            self._log_change(account, "mail_filter", cursor,
                             detail=str(report.doppelganger.address))
            report.installed_filter = True

        if wants_reply_to:
            cursor += self.rng.randrange(0, 2)
            account.hijacker_reply_to = report.doppelganger.address
            self._log_change(account, "reply_to", cursor,
                             detail=str(report.doppelganger.address))
            report.set_reply_to = True

        if (crew.uses_phone_lockout
                and self.rng.random() < self.profile.two_factor_lockout_rate):
            cursor += self.rng.randrange(0, 2)
            countries = tuple(c for c, _ in crew.phone_country_mix)
            weights = tuple(w for _, w in crew.phone_country_mix)
            phone = PhoneNumber(self.phone_plan.mint(
                weighted_choice(self.rng, countries, weights)))
            account.enable_two_factor(phone, by_hijacker=True, now=cursor)
            self.store.append(SettingsChangeEvent(
                timestamp=cursor,
                account_id=account.account_id,
                setting="two_factor",
                actor=Actor.MANUAL_HIJACKER,
                phone=phone,
            ))
            self.behavioral.note_settings_change(
                account.account_id, "two_factor", cursor)
            self.notifications.notify(account, "two_factor_change", cursor)
            report.enabled_two_factor = True

        return report

    def _log_change(self, account: Account, setting: str, now: int,
                    detail: str = "") -> None:
        self.store.append(SettingsChangeEvent(
            timestamp=now,
            account_id=account.account_id,
            setting=setting,
            actor=Actor.MANUAL_HIJACKER,
            detail=detail,
        ))
        self.behavioral.note_settings_change(account.account_id, setting, now)
