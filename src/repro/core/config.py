"""Simulation configuration.

One dataclass holds every knob, and each knob is declared once: the
population builder (:func:`repro.world.population.build_population`)
reads its fields straight off this config.  The defaults define a
balanced mid-size world good for interactive use and tests;
:mod:`repro.core.scenarios` derives per-experiment presets from it (the
paper, too, used differently shaped datasets per analysis — Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.hijacker.groups import Era, HijackingCrew, default_crews


@dataclass
class SimulationConfig:
    """Everything a :class:`repro.core.simulation.Simulation` needs."""

    seed: int = 7
    horizon_days: int = 28
    era: Era = Era.Y2012

    # -- population --------------------------------------------------------
    n_users: int = 8_000
    n_external_edu: int = 3_000
    n_external_other: int = 1_200
    mean_contacts: int = 10
    mean_history_messages: float = 30.0
    #: Fractions with each recovery option on file (Section 6.3 context).
    phone_on_file_rate: float = 0.55
    secondary_email_rate: float = 0.70
    #: Paper: ~7% of secondary recovery emails have been recycled.
    recycled_secondary_rate: float = 0.07
    #: Owners who enrolled a second factor themselves (Section 8.2's
    #: "best client-side defense").  2014-era adoption was low; the
    #: defense ablation sweeps this.
    owner_two_factor_adoption: float = 0.0

    # -- phishing ecosystem --------------------------------------------------
    #: Broad campaigns launched per simulated week (across all crews).
    campaigns_per_week: int = 10
    #: Addresses mailed per broad campaign.
    campaign_target_count: int = 700
    #: Fraction of a campaign's targets drawn from provider users (the
    #: rest come from the external .edu/other pool).
    provider_target_fraction: float = 0.35
    #: Fraction of pages hosted on the provider's Forms product.
    forms_hosting_fraction: float = 0.45
    #: One campaign in this many is a Figure 6-style outlier.
    outlier_campaign_interval: int = 12
    #: Phishing pages that reach victims through channels other than the
    #: crews' mass mailings (forums, IM, SEO).  They carry Table 2's
    #: *page* target mix, which differs from the email mix.
    standalone_pages_per_week: int = 6

    # -- decoy experiment ---------------------------------------------------
    #: Decoy credentials injected into detected mail-credential pages.
    n_decoys: int = 60

    # -- adversary ---------------------------------------------------------
    crews: Tuple[HijackingCrew, ...] = field(default_factory=default_crews)
    accounts_per_ip_cap: int = 10
    #: Global ceiling on manual incidents (bounds runtime at scale).
    max_incidents: Optional[int] = None

    # -- defense ---------------------------------------------------------
    risk_aggressiveness: float = 1.0

    # -- baselines ---------------------------------------------------------
    #: Run an automated-botnet wave for the taxonomy comparison.
    include_automated_baseline: bool = False
    automated_credentials: int = 400
    #: Run a targeted (espionage-grade) campaign for the taxonomy's
    #: third class.  The paper scopes these out of its measurement; we
    #: model them only as far as Figure 1 needs.
    include_targeted_baseline: bool = False
    targeted_victims: int = 5

    # -- telemetry ---------------------------------------------------------
    #: Enforce the provider's privacy-driven log retention at the end of
    #: the run ("Google sanitizes or entirely erases many
    #: authentication-related logs within a short time window", §3).
    #: Off by default: enforcement erases the early window and forces
    #: analyses onto recent data — exactly the wall the authors hit.
    enforce_log_retention: bool = False

    def __post_init__(self) -> None:
        if self.horizon_days < 1:
            raise ValueError("horizon must be at least one day")
        if not 0.0 <= self.provider_target_fraction <= 1.0:
            raise ValueError("provider target fraction out of range")
        if not 0.0 <= self.forms_hosting_fraction <= 1.0:
            raise ValueError("forms hosting fraction out of range")
        if self.campaigns_per_week < 0:
            raise ValueError("campaign cadence cannot be negative")
        if not self.crews:
            raise ValueError("need at least one crew")
        if self.n_users < 1:
            raise ValueError(f"need at least one user, got {self.n_users}")
        if self.mean_contacts % 2:
            raise ValueError("mean_contacts must be even (ring-lattice constraint)")
        if self.mean_history_messages <= 0:
            raise ValueError(
                f"mean_history_messages must be positive, "
                f"got {self.mean_history_messages}")

    def with_overrides(self, **overrides) -> "SimulationConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)
