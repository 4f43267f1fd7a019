"""Table 3 — top hijacker search terms.

Paper: finance terms dominate by an order of magnitude ("wire transfer"
14.4%, "bank transfer" 11.9%, Spanish and Chinese terms present), with
thin account-credential and personal-content tails.
"""

from repro.analysis import table3
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = ("paper: wire transfer 14.4%, bank transfer 11.9%, transfer 6.2%, "
         "wire 5.2%, transferencia 4.7%, investment 4.6%, banco 3.4%, "
         "账单 3.0% | password 0.6%, amazon 0.4% | jpg 0.2%, mov 0.2%")


def test_table3_search_terms(benchmark, exploitation_result):
    table = benchmark(lambda: table3.compute(
        ArtifactContext(exploitation_result)))
    finance_total = sum(share for _, share in table.shares["Finance"])
    assert finance_total > 0.6
    save_artifact("table3", table3.render(table) + "\n" + PAPER)
