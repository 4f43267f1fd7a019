"""Hijacking crews: who the adversaries are and where they sit.

Section 7 attributes manual hijacking to organized groups operating from
five main countries — China, Ivory Coast, Malaysia, Nigeria, and South
Africa — with Venezuelan activity visible in Spanish-language searches.
IP traffic is dominated by China and Malaysia (Figure 11); the phone
numbers used for the 2012 two-factor lockout tactic are dominated by
Nigeria and Ivory Coast (Figure 12) — the Asian crews never used that
tactic, which is why they are absent from the phone data.

Each crew couples a geography (IP mix, phone mix, time zone), a language
(searches and scam localization), staffing, and tactic preferences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.hijacker.schedule import WorkSchedule


class Era(enum.Enum):
    """Study eras with distinct hijacker tactics (Section 5.4)."""

    Y2011 = "2011"
    Y2012 = "2012"
    Y2014 = "2014"


@dataclass(frozen=True)
class HijackingCrew:
    """Configuration of one organized manual-hijacking group."""

    name: str
    country: str
    language: str
    schedule: WorkSchedule
    n_workers: int
    #: Egress-address geography: (country, weight) pairs.
    ip_country_mix: Tuple[Tuple[str, float], ...]
    #: SIM geography for the 2FA lockout tactic: (country, weight) pairs.
    phone_country_mix: Tuple[Tuple[str, float], ...]
    #: Whether this crew ever used the two-factor phone lockout (2012).
    uses_phone_lockout: bool
    #: Relative share of overall campaign/hijack volume.
    activity_weight: float

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"crew {self.name!r} needs at least one worker")
        if self.activity_weight <= 0:
            raise ValueError(f"crew {self.name!r} has non-positive activity")


def default_crews() -> Tuple[HijackingCrew, ...]:
    """The crews of the study's world, weighted to land Figures 11–12.

    IP volume is dominated by the Chinese and Malaysian groups; the West
    African groups dominate the phone data because only they tried the
    phone-lockout tactic.  South Africa shows ~10% in both datasets.
    """
    return (
        HijackingCrew(
            name="shenzhen",
            country="CN", language="zh",
            schedule=WorkSchedule(utc_offset_hours=8),
            n_workers=2,
            ip_country_mix=(("CN", 0.94), ("VN", 0.03), ("US", 0.03)),
            phone_country_mix=(("CN", 1.0),),
            uses_phone_lockout=False,
            activity_weight=0.33,
        ),
        HijackingCrew(
            name="kuala-lumpur",
            country="MY", language="en",
            schedule=WorkSchedule(utc_offset_hours=8),
            n_workers=2,
            ip_country_mix=(("MY", 0.95), ("IN", 0.05)),
            phone_country_mix=(("MY", 1.0),),
            uses_phone_lockout=False,
            activity_weight=0.30,
        ),
        HijackingCrew(
            name="abidjan",
            country="CI", language="fr",
            schedule=WorkSchedule(utc_offset_hours=0),
            n_workers=1,
            ip_country_mix=(("CI", 0.88), ("FR", 0.08), ("ML", 0.04)),
            phone_country_mix=(("CI", 0.72), ("ML", 0.13), ("FR", 0.07),
                               ("BR", 0.05), ("AF", 0.03)),
            uses_phone_lockout=True,
            activity_weight=0.09,
        ),
        HijackingCrew(
            name="lagos",
            country="NG", language="en",
            schedule=WorkSchedule(utc_offset_hours=1),
            n_workers=1,
            ip_country_mix=(("NG", 0.90), ("ZA", 0.05), ("GB", 0.05)),
            phone_country_mix=(("NG", 0.76), ("IN", 0.05), ("US", 0.04),
                               ("BR", 0.05), ("VN", 0.03), ("FR", 0.04),
                               ("AF", 0.03)),
            uses_phone_lockout=True,
            activity_weight=0.08,
        ),
        HijackingCrew(
            name="johannesburg",
            country="ZA", language="en",
            schedule=WorkSchedule(utc_offset_hours=2),
            n_workers=1,
            ip_country_mix=(("ZA", 0.96), ("NG", 0.04)),
            phone_country_mix=(("ZA", 0.92), ("VN", 0.04), ("AF", 0.04)),
            uses_phone_lockout=True,
            activity_weight=0.10,
        ),
        HijackingCrew(
            name="caracas",
            country="VE", language="es",
            schedule=WorkSchedule(utc_offset_hours=-4),
            n_workers=1,
            ip_country_mix=(("VE", 0.92), ("BR", 0.05), ("US", 0.03)),
            phone_country_mix=(("VE", 1.0),),
            uses_phone_lockout=False,
            activity_weight=0.06,
        ),
    )
