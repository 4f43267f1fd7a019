"""Section 5.4 — retention tactics and their 2011→2012 evolution.

Paper: mass deletion given a password change fell 46% → 1.6% after the
provider added content restoration; hijacker recovery-option changes
fell 60% → 21%; Nov 2012 rates: 15% forwarding filters, 26% Reply-To.
"""

from repro.analysis import retention
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = ("paper: mass delete | pw-change 46% -> 1.6%; recovery-option "
         "changes 60% -> 21%; 2012: filters 15%, Reply-To 26%")


def test_section54_era_evolution(benchmark, era_pair):
    early, late = era_pair
    evolution = benchmark(lambda: retention.evolution(
        ArtifactContext(late, earlier_era_result=early)))
    assert (evolution.earlier.mass_delete_given_password_change
            > evolution.later.mass_delete_given_password_change)
    assert (evolution.earlier.recovery_change_rate
            > evolution.later.recovery_change_rate)
    save_artifact(
        "section54",
        retention.render_evolution(evolution) + "\n"
        + retention.render(evolution.later) + "\n" + PAPER,
    )
