from repro import obs
from repro.analysis.report import full_report


class TestFullReport:
    def test_contains_every_artifact(self, smoke_result):
        text = full_report(smoke_result)
        for anchor in ("Table 1", "Table 2", "Table 3", "Figure 2",
                       "Figure 5", "Figure 7", "Figure 10", "Figure 12",
                       "Section 5.2", "Section 5.3"):
            assert anchor in text, f"missing {anchor}"

    def test_log_store_queries_pinned(self, smoke_result):
        """Every log read of the report goes through a shared dataset;
        the decoy first-access lookups run once, not twice."""
        with obs.recording() as recorder:
            full_report(smoke_result)
        queries = {kind: recorder.counters.get(f"logstore.query.{kind}", 0)
                   for kind in ("account_index", "actor_index", "type_scan")}
        assert queries == {"account_index": 14, "actor_index": 8,
                           "type_scan": 4}

    def test_degrades_gracefully_without_data(self, smoke_result):
        # The smoke scenario is tiny; sections short on data must note
        # it rather than raise.
        text = full_report(smoke_result)
        assert "REPRODUCTION REPORT" in text

    def test_evolution_section_with_two_results(self, smoke_result):
        text = full_report(smoke_result, earlier_era_result=smoke_result)
        assert "evolution" in text
