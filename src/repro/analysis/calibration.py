"""The paper's numbers as one table, and the one runner that checks them.

Every check of a paper statistic is a :class:`Row`: a unique key (its
prefix names the artifact), the paper's value as text, a band in
interval notation, the worlds it is asserted on, and a ``measure``.  A
measure reads :class:`~repro.analysis.registry.ArtifactContext`s only —
datasets, config and world size, never a result — so calibration sits
inside the same measurement-honesty boundary as every artifact (DESIGN
§6).  A relational claim is measured as a difference and banded
``(0, inf)`` (``sms - email``, never ``sms / email``), so no check
divides by a count that can be zero.

A measure returns ``None`` when its check is conditional and the
condition does not hold in that world (verdict ``n/a``, which is never a
pass).  A statistic the claim needs but the world did not produce is
``nan``, which no band contains.

Each world is written once in :data:`WORLDS`, as preset + seed +
overrides; a multi-config world (a pool, an era pair, a sweep) hands its
measure one context per config.  ``python -m repro.analysis.calibration``
builds every world once, evaluates every (row, world) pair, prints a
markdown table and exits non-zero if any pair fails.  It writes no
files.  The table spans many worlds, so it is not a registered artifact
and ``repro.analysis`` does not import it.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import (
    contacts,
    defense,
    exploitation,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    retention,
    revenue,
    table1,
    table2,
    table3,
    workweek,
)
from repro.analysis.registry import ArtifactContext
from repro.core.config import SimulationConfig
from repro.core.metrics import SummaryMetrics
from repro.core.scenarios import (
    attribution_study,
    contact_lift_study,
    decoy_study,
    exploitation_study,
    phishing_traffic_study,
    rate_calibration_study,
    recovery_study,
    retention_study,
    smoke_scenario,
    taxonomy_study,
)
from repro.core.simulation import Simulation, SimulationResult
from repro.hijacker.groups import Era
from repro.hijacker.incident import IncidentOutcome
from repro.hijacker.taxonomy import AttackClass
from repro.util.clock import HOUR

__all__ = ["Band", "ROWS", "Row", "Spec", "WORLDS", "World", "evaluate",
           "main", "render", "run"]

_BAND = re.compile(r"([\[(])\s*([^,\s]+)\s*,\s*([^,\s]+)\s*([\])])")


@dataclass(frozen=True)
class Band:
    """An interval: ``[lo, hi]``, ``(lo, hi)`` or half-open; ``inf`` ok."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    @classmethod
    def parse(cls, text: str) -> "Band":
        match = _BAND.fullmatch(text.strip())
        if match is None:
            raise ValueError(f"band {text!r} is not interval notation")
        lo, hi = float(match[2]), float(match[3])
        if not lo <= hi:
            raise ValueError(f"band {text!r} is empty")
        return cls(lo, hi, match[1] == "[", match[4] == "]")

    def __contains__(self, value: float) -> bool:
        above = value >= self.lo if self.lo_closed else value > self.lo
        below = value <= self.hi if self.hi_closed else value < self.hi
        return above and below  # nan compares false both ways


# -- worlds ------------------------------------------------------------------

@dataclass(frozen=True)
class Spec:
    """One config: a scenario preset at a seed, with field overrides."""

    preset: Callable[..., SimulationConfig]
    seed: int
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def config(self) -> SimulationConfig:
        return self.preset(seed=self.seed).with_overrides(
            **dict(self.overrides))


@dataclass(frozen=True)
class World:
    """The configs one row's measure reads, one context per config.

    With ``era_pair`` the two configs are Section 5.4's earlier and later
    era, and the measure gets one later-era context whose
    ``earlier_era`` holds the first.
    """

    specs: Tuple[Spec, ...]
    era_pair: bool = False

    def configs(self) -> List[SimulationConfig]:
        return [spec.config() for spec in self.specs]

    def contexts(self, results: Sequence[SimulationResult],
                 ) -> Tuple[ArtifactContext, ...]:
        if self.era_pair:
            earlier, later = results
            return (ArtifactContext(later, earlier_era_result=earlier),)
        return tuple(ArtifactContext(result) for result in results)


def _spec(preset: Callable[..., SimulationConfig], seed: int,
          **overrides: Any) -> Spec:
    return Spec(preset, seed, tuple(sorted(overrides.items())))


def _world(preset: Callable[..., SimulationConfig], seed: int) -> World:
    return World((_spec(preset, seed),))


#: Dataset 9: three large low-intensity worlds, pooled.
_LIFT = dict(horizon_days=35, n_users=18_000, campaigns_per_week=10)
#: Section 5.4: a 2011 and a 2012 world.
_ERA = dict(horizon_days=21, n_users=5_000, campaigns_per_week=18)
#: Section 8 sweeps: owner friction and hijacker stops across risk
#: aggressiveness, and access across owner second-factor adoption.
_ABLATION = dict(horizon_days=14, n_users=4_000, campaigns_per_week=16)

WORLDS: Dict[str, World] = {
    "traffic/7": _world(phishing_traffic_study, 7),
    "decoy/7": _world(decoy_study, 7),
    "decoy/13": _world(decoy_study, 13),
    "exploitation/7": _world(exploitation_study, 7),
    "exploitation/23": _world(exploitation_study, 23),
    "recovery/7": _world(recovery_study, 7),
    "recovery/11": _world(recovery_study, 11),
    "attribution/11": _world(attribution_study, 11),
    "taxonomy/5": _world(taxonomy_study, 5),
    "rate/7": _world(rate_calibration_study, 7),
    "smoke/7": _world(smoke_scenario, 7),
    "contact_lift/7,11,23": World(tuple(
        _spec(contact_lift_study, seed, **_LIFT) for seed in (7, 11, 23))),
    "retention/7": World(tuple(
        _spec(partial(retention_study, era), 7, **_ERA)
        for era in (Era.Y2011, Era.Y2012)), era_pair=True),
    # Contexts: aggressiveness 0.5, aggressiveness 1.8, second-factor
    # adoption 0 (the base config), second-factor adoption 0.9.
    "ablation/7": World((
        _spec(exploitation_study, 7, risk_aggressiveness=0.5, **_ABLATION),
        _spec(exploitation_study, 7, risk_aggressiveness=1.8, **_ABLATION),
        _spec(exploitation_study, 7, **_ABLATION),
        _spec(exploitation_study, 7, owner_two_factor_adoption=0.9,
              **_ABLATION),
    )),
}


# -- measures ----------------------------------------------------------------

def _required(value: Optional[float]) -> float:
    """A statistic the claim needs: missing is ``nan``, which fails."""
    return math.nan if value is None else value


def _indicator(holds: bool) -> float:
    return 1.0 if holds else 0.0


def _of(compute: Callable[[ArtifactContext], Any],
        extract: Callable[[Any], Optional[float]],
        ) -> Callable[[ArtifactContext], Optional[float]]:
    """The measure ``extract(compute(ctx))``."""
    return lambda ctx: extract(compute(ctx))


def _first_is(counts: Dict[str, int], name: str) -> float:
    return _indicator(bool(counts) and max(counts, key=counts.get) == name)


def _taxonomy(ctx: ArtifactContext,
              ) -> Dict[AttackClass, figure1.TaxonomyPoint]:
    return {point.attack_class: point for point in figure1.compute(ctx)}


def _taxonomy_gap(gap: Callable[..., float],
                  ) -> Callable[[ArtifactContext], float]:
    """``gap(automated, manual, targeted)``; ``nan`` if a class is missing."""
    def measure(ctx: ArtifactContext) -> float:
        points = _taxonomy(ctx)
        if set(points) != set(AttackClass):
            return math.nan
        return gap(points[AttackClass.AUTOMATED], points[AttackClass.MANUAL],
                   points[AttackClass.TARGETED])
    return measure


def _classified_as_itself(attack_class: AttackClass,
                          ) -> Callable[[ArtifactContext], float]:
    def measure(ctx: ArtifactContext) -> float:
        point = _taxonomy(ctx).get(attack_class)
        return math.nan if point is None else _indicator(
            point.classified_as is attack_class)
    return measure


def _folder_rate(folder: str) -> Callable[[ArtifactContext], float]:
    return _of(exploitation.compute,
               lambda stats: stats.folder_open_rates.get(folder, 0))


def _scam_minus_phishing(ctx: ArtifactContext) -> Optional[float]:
    split = contacts.scam_phishing_split(ctx)
    if not split:
        return None  # too few reported hijack messages at this scale
    return split.get("scam", 0) - split.get("phishing", 0)


def _profiling_gate(ctx: ArtifactContext) -> float:
    """Share of exploited minus share of skipped accounts holding valuables."""
    def rich_share(outcome: IncidentOutcome) -> float:
        assessed = [report.assessment
                    for report in ctx.dataset("reviewed_incidents")
                    if report.outcome is outcome
                    and report.assessment is not None]
        rich = sum(1 for a in assessed if a.found_financial
                   or a.found_credentials or a.found_media)
        return rich / max(1, len(assessed))
    return (rich_share(IncidentOutcome.EXPLOITED)
            - rich_share(IncidentOutcome.ASSESSED_NOT_EXPLOITED))


def _diverted_minus_undiverted(ctx: ArtifactContext) -> Optional[float]:
    report = revenue.compute(ctx)
    kinds = {payment.diverted for payment in report.payments}
    if kinds != {True, False}:
        return None  # needs both diverted and undiverted payments
    return (report.collection_rate(diverted=True)
            - report.collection_rate(diverted=False))


def _main_countries_missing(ctx: ArtifactContext) -> float:
    countries = {country for (country, _), members
                 in ctx.dataset("hijacker_groups").items()
                 if len(members) >= 5}
    return len({"CN", "MY", "CI", "NG", "ZA"} - countries)


def _access_rate(ctx: ArtifactContext) -> float:
    """Stolen credentials of provider accounts that still yield access."""
    relevant = [report for report in ctx.dataset("reviewed_incidents")
                if report.account_id is not None]
    if not relevant:
        return 0.0
    return (sum(1 for report in relevant if report.outcome.gained_access)
            / len(relevant))


def _incident_rate(ctx: ArtifactContext) -> float:
    metrics = SummaryMetrics.from_context(ctx)
    return metrics.incidents_per_million_actives_per_day


# -- the table ---------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    """One paper statistic, its band, and the worlds it is asserted on."""

    key: str
    paper: str
    band: str
    worlds: Tuple[str, ...]
    measure: Callable[..., Optional[float]]


def _row(key: str, paper: str, band: str, worlds: str,
         measure: Callable[..., Optional[float]]) -> Row:
    return Row(key, paper, band, tuple(worlds.split()), measure)


ROWS: Tuple[Row, ...] = (
    _row("table1.datasets", "14 datasets", "[14, 14]", "exploitation/7",
         _of(table1.compute, len)),
    _row("table2.mail_first_emails", "Mail 35 of 100 emails, first",
         "[1, 1]", "traffic/7",
         _of(table2.compute, lambda t: _first_is(t.email_counts, "Mail"))),
    _row("table2.mail_first_pages", "Mail 27 of 100 pages, first",
         "[1, 1]", "traffic/7",
         _of(table2.compute, lambda t: _first_is(t.page_counts, "Mail"))),
    _row("table3.finance_share", "finance terms dominate", "(0.6, inf)",
         "exploitation/7",
         _of(table3.compute,
             lambda t: sum(share for _, share in t.shares["Finance"]))),

    _row("fig1.classes_missing", "automated, manual and targeted",
         "[0, 0]", "taxonomy/5",
         lambda ctx: len(set(_taxonomy(ctx)) ^ set(AttackClass))),
    _row("fig1.manual_classified", "manual point in its region", "[1, 1]",
         "taxonomy/5", _classified_as_itself(AttackClass.MANUAL)),
    _row("fig1.automated_classified", "automated point in its region",
         "[1, 1]", "taxonomy/5", _classified_as_itself(AttackClass.AUTOMATED)),
    _row("fig1.targeted_classified", "targeted point in its region",
         "[1, 1]", "taxonomy/5", _classified_as_itself(AttackClass.TARGETED)),
    _row("fig1.automated_minus_10x_manual_volume",
         "automated volume orders above manual", "(0, inf)", "taxonomy/5",
         _taxonomy_gap(lambda auto, manual, _: (
             auto.accounts_per_day - 10 * manual.accounts_per_day))),
    _row("fig1.manual_minus_2x_automated_depth",
         "manual deep, automated shallow", "(0, inf)", "taxonomy/5",
         _taxonomy_gap(lambda auto, manual, _: (
             manual.depth_score - 2 * auto.depth_score))),
    _row("fig1.targeted_minus_manual_depth", "targeted deepest", "(0, inf)",
         "taxonomy/5",
         _taxonomy_gap(lambda _, manual, targeted: (
             targeted.depth_score - manual.depth_score))),
    _row("fig1.targeted_accounts_per_day", "targeted tiny volume",
         "(-inf, 10)", "taxonomy/5",
         _taxonomy_gap(lambda _, __, targeted: targeted.accounts_per_day)),

    _row("fig2.assessment_minutes", "assessment ~3 min", "(-inf, 6]",
         "exploitation/7",
         _of(figure2.compute, lambda t: _required(t.assessment))),
    _row("fig2.exploitation_minutes", "exploitation +15-20 min",
         "[15, inf)", "exploitation/7",
         _of(figure2.compute, lambda t: _required(t.exploitation))),
    _row("fig3.blank_share", ">99% blank", "(0.97, inf)", "traffic/7",
         _of(figure3.compute, lambda f: f.blank_fraction)),
    _row("fig4.edu_first", ".edu dominates", "[1, 1]", "traffic/7",
         _of(figure4.compute, lambda f: _indicator(
             bool(f.ordered()) and f.ordered()[0][0] == "edu"))),
    _row("fig4.edu_share", ".edu dominates", "(0.6, inf)", "traffic/7",
         _of(figure4.compute, lambda f: f.share("edu"))),
    _row("fig5.mean_rate", "mean 13.78%", "(0.08, 0.22)", "traffic/7",
         _of(figure5.compute, lambda f: f.average)),
    _row("fig5.best_minus_1.8x_mean", "best page 45%", "(0, inf)",
         "traffic/7",
         _of(figure5.compute, lambda f: f.best - 1.8 * f.average)),
    _row("fig5.half_mean_minus_worst", "worst page 3%", "(0, inf)",
         "traffic/7", _of(figure5.compute, lambda f: f.average / 2 - f.worst)),
    _row("fig6.decays", "decay from first visit", "[1, 1]", "traffic/7",
         _of(figure6.compute, lambda f: _indicator(f.decays()))),
    _row("fig6.outlier", "one ~15 h quiet outlier page", "[1, 1]",
         "traffic/7",
         _of(figure6.compute, lambda f: _indicator(f.outlier is not None))),

    _row("fig7.within_30min", "20% within 30 min", "[0.12, 0.32]",
         "decoy/13 decoy/7",
         _of(figure7.compute, lambda f: f.fraction_within(30))),
    _row("fig7.within_7h", "50% within 7 h", "[0.38, 0.62]",
         "decoy/13 decoy/7",
         _of(figure7.compute, lambda f: f.fraction_within(7 * HOUR))),
    _row("fig7.plateau", "plateau below 100%", "[0.70, 0.95]", "decoy/13",
         _of(figure7.compute, lambda f: f.fraction_accessed)),
    _row("fig7.below_full_access", "plateau below 100%", "(-inf, 1.0)",
         "decoy/7", _of(figure7.compute, lambda f: f.fraction_accessed)),
    _row("fig8.accounts_per_ip", "~9.6 accounts/IP", "[8.0, 10.0]",
         "exploitation/23 exploitation/7",
         _of(figure8.compute, lambda f: f.mean_accounts_per_ip)),
    _row("fig8.max_accounts_per_ip_day", "consistently <10/day",
         "(-inf, 10]", "exploitation/23 exploitation/7",
         _of(figure8.compute, lambda f: f.max_accounts_per_ip_day)),
    _row("fig8.password_success", "75% incl. retries", "[0.68, 0.84]",
         "exploitation/23 exploitation/7",
         _of(figure8.compute, lambda f: f.password_success_rate)),
    _row("fig9.within_1h", "22% within 1 h", "(0.05, 0.45)", "recovery/7",
         _of(figure9.compute, lambda f: f.fraction_within_hours(1))),
    _row("fig9.within_13h", "50% within 13 h", "(0.30, 0.95]", "recovery/7",
         _of(figure9.compute, lambda f: f.fraction_within_hours(13))),
    _row("fig10.sms", "SMS 80.91%", "[0.70, 0.92]", "recovery/11",
         _of(figure10.compute, lambda f: f.success_rate("sms"))),
    _row("fig10.email", "email 74.57%", "[0.55, 0.90]", "recovery/11",
         _of(figure10.compute, lambda f: f.success_rate("email"))),
    _row("fig10.fallback", "fallback 14.20%", "[0.05, 0.26]", "recovery/11",
         _of(figure10.compute, lambda f: f.success_rate("fallback"))),
    _row("fig10.sms_minus_email", "SMS 80.91% > email 74.57%", "(0, inf)",
         "recovery/7",
         _of(figure10.compute,
             lambda f: f.success_rate("sms") - f.success_rate("email"))),
    _row("fig10.email_minus_fallback", "email 74.57% > fallback 14.20%",
         "(0, inf)", "recovery/7",
         _of(figure10.compute,
             lambda f: f.success_rate("email") - f.success_rate("fallback"))),
    _row("fig11.cn_my_share", "CN & MY dominate", "(0.4, inf)",
         "attribution/11",
         _of(figure11.compute, lambda f: f.share("CN") + f.share("MY"))),
    _row("fig11.za_share", "ZA ~10%", "(0.03, inf)", "attribution/11",
         _of(figure11.compute, lambda f: f.share("ZA"))),
    _row("fig12.ng_ci_za_share", "NG 35.7%, CI 33.8%, ZA ~10%",
         "(0.7, inf)", "attribution/11",
         _of(figure12.compute,
             lambda f: f.share("NG") + f.share("CI") + f.share("ZA"))),
    _row("fig12.cn_share", "CN/MY absent", "[0, 0]", "attribution/11",
         _of(figure12.compute, lambda f: f.share("CN"))),

    _row("sec3.incident_rate", "~9 incidents / M actives / day",
         "[1.0, 60.0]", "rate/7", _incident_rate),
    _row("sec3.incident_rate_nonzero", "~9 incidents / M actives / day",
         "(0, inf)", "exploitation/23 smoke/7", _incident_rate),
    _row("sec52.assessment_minutes", "~3 min assessment", "[2.0, 4.5]",
         "exploitation/23 exploitation/7",
         _of(exploitation.compute,
             lambda s: _required(s.mean_assessment_minutes))),
    _row("sec52.starred", "Starred 16%", "[0.10, 0.30]", "exploitation/23",
         _folder_rate("Starred")),
    _row("sec52.drafts", "Drafts 11%", "[0.05, 0.20]", "exploitation/23",
         _folder_rate("Drafts")),
    _row("sec52.sent", "Sent 5%", "[0.02, 0.12]", "exploitation/23",
         _folder_rate("Sent Mail")),
    _row("sec52.trash", "Trash <1%", "(-inf, 0.04]", "exploitation/23",
         _folder_rate("Trash")),
    _row("sec52.exploited_fraction", "unpromising accounts abandoned",
         "[0.30, 0.80]", "exploitation/23",
         _of(SummaryMetrics.from_context,
             lambda m: m.exploited_fraction_of_accessed)),
    _row("sec52.profiling_gate", "unpromising accounts abandoned",
         "(0, inf)", "exploitation/7", _profiling_gate),
    _row("sec53.volume_ratio", "volume +25%", "[1.05, 2.2]",
         "exploitation/23",
         _of(contacts.hijack_day_deltas, lambda d: _required(d.volume_ratio))),
    _row("sec53.recipient_ratio", "distinct recipients +630%", "[3.0, inf)",
         "exploitation/23",
         _of(contacts.hijack_day_deltas,
             lambda d: _required(d.distinct_recipient_ratio))),
    _row("sec53.recipients_minus_volume",
         "recipients +630% vs volume +25%", "(0, inf)", "exploitation/7",
         _of(contacts.hijack_day_deltas,
             lambda d: _required(d.distinct_recipient_ratio)
             - _required(d.volume_ratio))),
    _row("sec53.scam_minus_phishing", "65% scam / 35% phishing", "(0, inf)",
         "exploitation/23", _scam_minus_phishing),
    _row("sec53.contact_minus_random_rate", "contacts hijacked 36x more",
         "(0, inf)", "contact_lift/7,11,23",
         lambda *ctxs: (lambda lift: lift.contact_rate - lift.random_rate)(
             contacts.pooled_contact_lift(ctxs))),
    _row("sec53.contact_lift", "36x over 60 days", "(10.0, inf)",
         "contact_lift/7,11,23",
         lambda *ctxs: _required(contacts.pooled_contact_lift(ctxs).lift)),
    _row("sec54.mass_delete_drop", "46% -> 1.6% (2011 -> 2012)", "(0, inf)",
         "retention/7",
         _of(retention.evolution,
             lambda e: e.earlier.mass_delete_given_password_change
             - e.later.mass_delete_given_password_change)),
    _row("sec54.recovery_change_drop", "60% -> 21% (2011 -> 2012)",
         "(0, inf)", "retention/7",
         _of(retention.evolution,
             lambda e: e.earlier.recovery_change_rate
             - e.later.recovery_change_rate)),
    _row("sec55.weekend_share", "largely inactive over weekends",
         "(-inf, 0.05)", "exploitation/7",
         _of(workweek.compute, workweek.overall_weekend_share)),
    _row("sec7.main_countries_missing", "five main countries", "[0, 0]",
         "attribution/11", _main_countries_missing),
    _row("sec8.owner_challenge_rate", "small FP rate accepted",
         "(-inf, 0.05)", "exploitation/7",
         _of(defense.evaluate, lambda p: p.owner_challenge_rate)),
    _row("sec8.hijacker_stop_rate", "login-time analysis stops hijackers",
         "(0.10, inf)", "exploitation/7",
         _of(defense.evaluate, lambda p: p.hijacker_stop_rate)),
    _row("sec8.stops_gain_with_aggressiveness", "FP/FN trade-off",
         "(0, inf)", "ablation/7",
         lambda low, high, *_: (defense.evaluate(high).hijacker_stop_rate
                                - defense.evaluate(low).hijacker_stop_rate)),
    _row("sec8.friction_gain_with_aggressiveness", "FP/FN trade-off",
         "[0, inf)", "ablation/7",
         lambda low, high, *_: (defense.evaluate(high).owner_challenge_rate
                                - defense.evaluate(low).owner_challenge_rate)),
    _row("sec8.blend_in_gap", "bot fan-out is the easy case", "(0, inf)",
         "taxonomy/5",
         lambda ctx: defense.stop_rate(ctx.dataset("automated_logins"))
         - (defense.stop_rate(ctx.dataset("hijacker_logins")) + 0.15)),
    _row("sec82.second_factor_access_drop",
         "second factor = best client-side defense", "(0, inf)",
         "ablation/7",
         lambda *ctxs: _access_rate(ctxs[2]) - _access_rate(ctxs[3])),
    _row("econ.payments", "scams collect payments", "(0, inf)",
         "exploitation/7", _of(revenue.compute, lambda r: len(r.payments))),
    _row("econ.diverted_minus_undiverted",
         "doppelgangers buy the scam time", "[0, inf)", "exploitation/7",
         _diverted_minus_undiverted),
)

# -- the runner --------------------------------------------------------------

def evaluate(row: Row, contexts: Sequence[ArtifactContext],
             ) -> Tuple[Optional[float], str]:
    """(measured, verdict): ``pass``, ``FAIL`` or ``n/a``."""
    value = row.measure(*contexts)
    if value is None:
        return None, "n/a"
    return value, "pass" if value in Band.parse(row.band) else "FAIL"


Verdict = Tuple[Row, str, Optional[float], str]


def run() -> List[Verdict]:
    """Build every world once and evaluate every (row, world) pair.

    Worlds run one after another: shipping whole results back from
    :func:`~repro.core.parallel.run_worlds` workers costs more than the
    second core saves (94 s against 60 s serial on a 2-vCPU VM), and
    one world alive at a time bounds memory.
    """
    measured: Dict[Tuple[str, str], Tuple[Optional[float], str]] = {}
    for name, world in WORLDS.items():
        contexts = world.contexts(
            [Simulation(config).run() for config in world.configs()])
        for r in ROWS:
            if name in r.worlds:
                measured[r.key, name] = evaluate(r, contexts)
    return [(r, name, *measured[r.key, name])
            for r in ROWS for name in r.worlds]


def render(verdicts: Sequence[Verdict]) -> str:
    lines = ["| key | paper | band | world | measured | verdict |",
             "|---|---|---|---|---|---|"]
    for r, name, value, verdict in verdicts:
        shown = "—" if value is None else f"{value:.4g}"
        lines.append(f"| {r.key} | {r.paper} | {r.band} | {name} | "
                     f"{shown} | {verdict} |")
    return "\n".join(lines)


def main() -> int:
    verdicts = run()
    print(render(verdicts))
    return 1 if any(v[3] == "FAIL" for v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
