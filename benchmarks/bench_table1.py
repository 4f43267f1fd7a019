"""Table 1 — the dataset inventory.

Paper: 14 datasets spanning 2011–2014, from 100-email curated samples to
5000 recovered accounts.  The bench regenerates the inventory from one
run and times the full catalog build (14 dataset extractions over the
log store).
"""

from repro.analysis import table1
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact


def test_table1_dataset_inventory(benchmark, exploitation_result):
    specs = benchmark(lambda: table1.compute(
        ArtifactContext(exploitation_result)))
    assert len(specs) == 14
    save_artifact("table1", table1.render(specs))
