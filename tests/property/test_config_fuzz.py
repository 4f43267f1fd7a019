"""Hypothesis config-space fuzz: edge-of-config worlds run and report.

Tiny populations (down to one user), one-day horizons, no campaigns or
sixty a week, empty or one-address target lists, provider and Forms
fractions at both ends, every campaign an outlier, contact-free worlds,
near-empty mailbox histories, both baselines and log retention.  Each
world must run to completion and render the full report, and its logs
must hold the store's invariants.

Events are *not* required to fall inside the horizon: campaign HTTP
tails, reports due after the last flush and the targeted baseline's
logins land after ``horizon_days * DAY`` by design.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.datasets import Datasets
from repro.analysis.report import full_report
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation


@st.composite
def edge_configs(draw):
    return SimulationConfig(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        n_users=draw(st.integers(min_value=1, max_value=150)),
        n_external_edu=draw(st.integers(min_value=0, max_value=60)),
        n_external_other=draw(st.integers(min_value=0, max_value=25)),
        horizon_days=draw(st.integers(min_value=1, max_value=6)),
        campaigns_per_week=draw(st.sampled_from([0, 3, 14, 60])),
        campaign_target_count=draw(st.sampled_from([0, 1, 30, 90])),
        provider_target_fraction=draw(st.sampled_from([0.0, 0.35, 1.0])),
        forms_hosting_fraction=draw(st.sampled_from([0.0, 0.45, 1.0])),
        outlier_campaign_interval=draw(st.sampled_from([0, 1, 12])),
        standalone_pages_per_week=draw(st.sampled_from([0, 2, 5])),
        n_decoys=draw(st.sampled_from([0, 2, 4])),
        mean_contacts=draw(st.sampled_from([0, 2, 10])),
        mean_history_messages=draw(st.sampled_from([0.5, 30.0])),
        include_automated_baseline=draw(st.booleans()),
        automated_credentials=draw(st.sampled_from([0, 20])),
        include_targeted_baseline=draw(st.booleans()),
        enforce_log_retention=draw(st.booleans()),
    )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=edge_configs())
def test_edge_worlds_run_report_and_keep_log_invariants(config):
    result = Simulation(config).run()
    assert isinstance(full_report(result), str)
    for event_type in result.store.event_types():
        stamps = [event.timestamp for event in result.store.query(event_type)]
        assert all(stamp >= 0 for stamp in stamps), event_type.__name__
        assert stamps == sorted(stamps), event_type.__name__
    deltas = Datasets(result).get("decoy_access_deltas")
    assert all(delta >= 0 for delta in deltas.values() if delta is not None)
