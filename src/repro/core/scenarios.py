"""Per-experiment scenario presets.

The paper's 14 datasets come from differently shaped collection windows
(Table 1): a month of recovery claims, two weeks of hijacker IPs, a
year-apart pair of hijack-case samples.  Our experiments mirror that: a
figure gets a workload sized for *its* statistic, not one monolithic
run.  Each preset documents what it is tuned to measure.
"""

from __future__ import annotations

from repro.core.config import SimulationConfig
from repro.hijacker.groups import Era


def default_scenario(seed: int = 7) -> SimulationConfig:
    """The balanced mid-size world used by quickstart and most tests."""
    return SimulationConfig(seed=seed)


def phishing_traffic_study(seed: int = 7) -> SimulationConfig:
    """Figures 3–6 and Table 2: lots of campaigns and Forms pages.

    Hijack processing matters little here, so the population is small
    and the external pool big; every page gets traffic to measure.
    """
    return SimulationConfig(
        seed=seed,
        horizon_days=28,
        n_users=3_000,
        n_external_edu=6_000,
        n_external_other=2_500,
        campaigns_per_week=36,
        campaign_target_count=600,
        forms_hosting_fraction=0.55,
        standalone_pages_per_week=10,
        # Outliers triple their campaign's volume; keep them rare enough
        # that one lucky target type cannot skew the Table 2 email mix.
        outlier_campaign_interval=24,
        n_decoys=0,
        max_incidents=300,
    )


def decoy_study(seed: int = 7) -> SimulationConfig:
    """Figure 7: many decoys, enough campaigns to host them."""
    return SimulationConfig(
        seed=seed,
        horizon_days=28,
        n_users=2_000,
        n_external_edu=1_500,
        n_external_other=600,
        campaigns_per_week=26,
        campaign_target_count=250,
        forms_hosting_fraction=0.30,
        standalone_pages_per_week=150,
        n_decoys=200,
    )


def exploitation_study(seed: int = 7) -> SimulationConfig:
    """Sections 5.2–5.3 and Figure 8: many incidents to characterize."""
    return SimulationConfig(
        seed=seed,
        horizon_days=35,
        n_users=9_000,
        n_external_edu=2_500,
        n_external_other=1_000,
        campaigns_per_week=22,
        campaign_target_count=900,
        provider_target_fraction=0.45,
        n_decoys=0,
    )


def contact_lift_study(seed: int = 7) -> SimulationConfig:
    """The 36× contact-targeting lift (Dataset 9).

    Needs a large population relative to the number of incidents so the
    random-cohort base rate stays small; seeds land early so the
    follow-up window covers most of the horizon.
    """
    return SimulationConfig(
        seed=seed,
        horizon_days=49,
        n_users=30_000,
        n_external_edu=2_000,
        n_external_other=800,
        campaigns_per_week=12,
        campaign_target_count=700,
        provider_target_fraction=0.35,
        n_decoys=0,
    )


def recovery_study(seed: int = 7) -> SimulationConfig:
    """Figures 9–10: maximize recovery cases.

    Channel success rates need hundreds of claims to settle (the paper
    used a whole month of claims to "avoid sample bias issues").
    """
    return SimulationConfig(
        seed=seed,
        horizon_days=42,
        n_users=14_000,
        n_external_edu=2_500,
        n_external_other=1_000,
        campaigns_per_week=44,
        campaign_target_count=900,
        provider_target_fraction=0.50,
        n_decoys=0,
    )


def retention_study(era: Era, seed: int = 7) -> SimulationConfig:
    """Section 5.4's longitudinal comparison: the exploitation world,
    run once per era."""
    return exploitation_study(seed).with_overrides(era=era)


def attribution_study(seed: int = 7) -> SimulationConfig:
    """Figures 11–12: the default era 2012 (the phone tactic's window),
    all crews.

    Phone attribution needs enough *African-crew* incidents (only those
    crews used the two-factor lockout), and those crews carry a minority
    of the volume — so this scenario runs hot.
    """
    return SimulationConfig(
        seed=seed,
        horizon_days=42,
        n_users=16_000,
        n_external_edu=2_500,
        n_external_other=1_000,
        campaigns_per_week=48,
        campaign_target_count=900,
        provider_target_fraction=0.50,
        n_decoys=0,
    )


def taxonomy_study(seed: int = 7) -> SimulationConfig:
    """Figure 1: manual crews plus the automated-botnet baseline."""
    return SimulationConfig(
        seed=seed,
        horizon_days=21,
        n_users=5_000,
        n_external_edu=1_500,
        n_external_other=600,
        campaigns_per_week=14,
        campaign_target_count=600,
        include_automated_baseline=True,
        automated_credentials=600,
        include_targeted_baseline=True,
        targeted_victims=4,
        n_decoys=0,
    )


def rate_calibration_study(seed: int = 7) -> SimulationConfig:
    """The 9-per-million-actives-per-day incident rate (Section 3).

    Realistic per-user incidence needs a large population and *low*
    hijacking intensity; mailbox history is thinned to keep the build
    affordable at this scale.
    """
    return SimulationConfig(
        seed=seed,
        horizon_days=30,
        n_users=60_000,
        n_external_edu=1_200,
        n_external_other=500,
        mean_history_messages=6.0,
        campaigns_per_week=6,
        campaign_target_count=600,
        provider_target_fraction=0.35,
        standalone_pages_per_week=0,
        n_decoys=0,
    )


def smoke_scenario(seed: int = 7) -> SimulationConfig:
    """A tiny fast world for unit/integration tests."""
    return SimulationConfig(
        seed=seed,
        horizon_days=14,
        n_users=1_200,
        n_external_edu=500,
        n_external_other=250,
        campaigns_per_week=16,
        campaign_target_count=420,
        provider_target_fraction=0.50,
        standalone_pages_per_week=6,
        n_decoys=15,
    )
