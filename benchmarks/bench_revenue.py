"""Section 5.4 ablation — retention tactics pay.

Paper: scams need one to two days of account control (two email rounds);
diverting replies to a doppelganger gives the hijacker "all the time in
the world".  The bench resolves every attempted scam payment against the
recovery timeline and shows diverted pleas out-collect undiverted ones.
"""

from repro.analysis import revenue
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact


def test_scam_economics(benchmark, exploitation_result):
    report = benchmark(lambda: revenue.compute(
        ArtifactContext(exploitation_result)))
    assert report.payments
    if any(p.diverted for p in report.payments) and \
            any(not p.diverted for p in report.payments):
        assert (report.collection_rate(diverted=True)
                >= report.collection_rate(diverted=False))
    save_artifact("scam_economics", revenue.render(report))
