"""Table 2 — account types targeted by phishing.

Paper (per 100): emails Mail 35 / Bank 21 / App Store 16 / Social 14 /
Other 14; pages Mail 27 / Bank 25 / App Store 17 / Social 15 / Other 15.
Shape to hold: Mail first and Bank second in both columns.
"""

from repro.analysis import table2
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = """paper (emails): Mail 35, Bank 21, App Store 16, Social 14, Other 14
paper (pages):  Mail 27, Bank 25, App Store 17, Social 15, Other 15"""


def test_table2_phishing_targets(benchmark, traffic_result):
    table = benchmark(lambda: table2.compute(ArtifactContext(traffic_result)))
    assert max(table.email_counts, key=table.email_counts.get) == "Mail"
    assert max(table.page_counts, key=table.page_counts.get) == "Mail"
    save_artifact("table2", table2.render(table) + "\n" + PAPER)
