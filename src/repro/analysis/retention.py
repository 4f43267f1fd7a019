"""Section 5.4 — account-retention tactics and their evolution.

Per-era tactic rates measured from the settings-change log over the
high-confidence hijacked accounts (Datasets 7 and 10: 575 accounts of a
2012 world, 600 of a 2011 one), and the longitudinal comparison the
paper draws between October 2011 and November 2012:

* mass deletion among password-change cases: 46% → 1.6%,
* hijacker-initiated recovery-option changes: 60% → 21%,
* 2012 rates: 15% forwarding filters, 26% hijacker Reply-To.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from repro.analysis.registry import ArtifactContext, artifact
from repro.util.render import ascii_table, format_percent


@dataclass(frozen=True)
class RetentionRates:
    """Tactic incidence over one era's hijacked-account sample."""

    era: str
    n_accounts: int
    password_change_rate: float
    mass_delete_given_password_change: float
    recovery_change_rate: float
    mail_filter_rate: float
    reply_to_rate: float
    two_factor_rate: float


def compute(ctx: ArtifactContext) -> RetentionRates:
    wanted = {account.account_id
              for account in ctx.dataset("hijacked_accounts")}
    by_setting: Dict[str, Set[str]] = {}
    for change in ctx.dataset("hijacker_settings_changes"):
        if change.account_id in wanted:
            by_setting.setdefault(change.setting, set()).add(change.account_id)

    n = len(wanted)
    password_changed = by_setting.get("password", set())
    mass_deleted = by_setting.get("mass_delete", set())
    recovery_changed = (
        by_setting.get("recovery_email", set())
        | by_setting.get("recovery_phone", set())
        | by_setting.get("secret_question", set())
    )

    def rate(accounts_set: Set[str]) -> float:
        return len(accounts_set) / n if n else 0.0

    return RetentionRates(
        era=ctx.result.config.era.value,
        n_accounts=n,
        password_change_rate=rate(password_changed),
        mass_delete_given_password_change=(
            len(mass_deleted & password_changed) / len(password_changed)
            if password_changed else 0.0),
        recovery_change_rate=rate(recovery_changed),
        mail_filter_rate=rate(by_setting.get("mail_filter", set())),
        reply_to_rate=rate(by_setting.get("reply_to", set())),
        two_factor_rate=rate(by_setting.get("two_factor", set())),
    )


@dataclass(frozen=True)
class RetentionEvolution:
    """The 2011 → 2012 longitudinal comparison."""

    earlier: RetentionRates
    later: RetentionRates


def evolution(ctx: ArtifactContext) -> RetentionEvolution:
    """Each era's rates, resolved through that era's own context."""
    return RetentionEvolution(earlier=compute(ctx.earlier_era),
                              later=compute(ctx))


def render(rates: RetentionRates) -> str:
    return ascii_table(
        ["Tactic", "Rate"],
        [
            ("password change (lockout)",
             format_percent(rates.password_change_rate)),
            ("mass deletion | password change",
             format_percent(rates.mass_delete_given_password_change)),
            ("recovery-option change",
             format_percent(rates.recovery_change_rate)),
            ("forwarding / hiding filter",
             format_percent(rates.mail_filter_rate)),
            ("hijacker Reply-To", format_percent(rates.reply_to_rate)),
            ("two-factor phone lockout",
             format_percent(rates.two_factor_rate)),
        ],
        title=(f"Section 5.4: retention tactics, era {rates.era} "
               f"({rates.n_accounts} hijacked accounts)"),
    )


def render_evolution(evo: RetentionEvolution) -> str:
    def row(label: str, attr: str) -> tuple:
        return (
            label,
            format_percent(getattr(evo.earlier, attr)),
            format_percent(getattr(evo.later, attr)),
        )

    return ascii_table(
        ["Tactic", f"era {evo.earlier.era}", f"era {evo.later.era}"],
        [
            row("mass deletion | password change",
                "mass_delete_given_password_change"),
            row("recovery-option change", "recovery_change_rate"),
            row("forwarding / hiding filter", "mail_filter_rate"),
            row("hijacker Reply-To", "reply_to_rate"),
            row("two-factor phone lockout", "two_factor_rate"),
        ],
        title="Section 5.4: retention-tactic evolution",
    )


@artifact("section5.4", title="Section 5.4", report_order=140,
          description="Section 5.4: account-retention tactic rates per era",
          deps=("hijacked_accounts", "hijacker_settings_changes"))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))


@artifact("evolution", title="Section 5.4 evolution", report_order=155,
          description=("Section 5.4: retention-tactic evolution between "
                       "eras (needs --artifact with an earlier-era run)"),
          deps=("hijacked_accounts", "hijacker_settings_changes"),
          needs_earlier_era=True)
def _registered_evolution(ctx: ArtifactContext) -> str:
    if ctx.earlier_era is None:
        return ("Section 5.4 evolution: needs an earlier-era run to "
                "compare against (pass earlier_era_result)")
    return render_evolution(evolution(ctx))
