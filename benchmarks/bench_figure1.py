"""Figure 1 — the hijacking taxonomy trade-off.

Paper: automated hijacking = many accounts / shallow abuse; manual =
orders of magnitude fewer accounts / deep per-victim abuse.  The bench
measures both axes from a run containing manual crews *and* the botnet
baseline, and asserts each lands in its region.
"""

from repro.analysis import figure1
from repro.analysis.registry import ArtifactContext
from repro.hijacker.taxonomy import AttackClass
from benchmarks.conftest import save_artifact

PAPER = ("paper: automated = large volume/shallow; manual = modest "
         "volume/deep; targeted = tiny volume/deepest (conceptual chart)")


def test_figure1_taxonomy(benchmark, taxonomy_result):
    points = benchmark(lambda: figure1.compute(
        ArtifactContext(taxonomy_result)))
    by_class = {point.attack_class: point for point in points}
    assert set(by_class) == set(AttackClass)  # all three classes measured
    manual = by_class[AttackClass.MANUAL]
    automated = by_class[AttackClass.AUTOMATED]
    targeted = by_class[AttackClass.TARGETED]
    for point in points:
        assert point.classified_as is point.attack_class
    assert automated.accounts_per_day > 10 * manual.accounts_per_day
    assert manual.depth_score > 2 * automated.depth_score
    assert targeted.depth_score > manual.depth_score
    assert targeted.accounts_per_day < 10
    save_artifact("figure1", figure1.render(points) + "\n" + PAPER)
