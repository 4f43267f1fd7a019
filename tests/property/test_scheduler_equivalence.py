"""Hypothesis differential: event-wheel loop vs the rescan oracle.

Property: for *any* (seed, horizon, population shape, campaign tempo),
running the simulation through the event wheel produces bit-identical
results to :class:`RescanSimulation`, the per-day rescan loop the
wheel's ordering contract is written against — same log events in the
same order, same incident outcomes, same world fingerprints, same
rendered report bytes.
"""

from __future__ import annotations

import pathlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.report import full_report
from repro.core.config import SimulationConfig
from repro.core.scenarios import smoke_scenario
from repro.core.simulation import Simulation
from repro.world.equivalence import population_fingerprint
from tests.property.rescan_oracle import RescanSimulation

_SLOW = settings(max_examples=6, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _all_events(store):
    return [
        repr(event)
        for event_type in sorted(store.event_types(), key=lambda t: t.__name__)
        for event in store.query(event_type)
    ]


def _assert_equivalent(wheel, oracle):
    assert _all_events(wheel.store) == _all_events(oracle.store)
    assert ([r.outcome for r in wheel.incidents]
            == [r.outcome for r in oracle.incidents])
    assert ([r.account_id for r in wheel.incidents]
            == [r.account_id for r in oracle.incidents])
    assert wheel.summary() == oracle.summary()
    assert len(wheel.mail.pending_reports) == len(oracle.mail.pending_reports)
    assert ([(c.account_id, c.hijack_flagged_at, c.recovered_at)
             for c in wheel.remediation.cases]
            == [(c.account_id, c.hijack_flagged_at, c.recovered_at)
                for c in oracle.remediation.cases])
    assert population_fingerprint(wheel.population) \
        == population_fingerprint(oracle.population)


@st.composite
def sim_configs(draw):
    return SimulationConfig(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        n_users=draw(st.integers(min_value=40, max_value=180)),
        n_external_edu=draw(st.integers(min_value=0, max_value=60)),
        n_external_other=draw(st.integers(min_value=0, max_value=25)),
        horizon_days=draw(st.integers(min_value=1, max_value=6)),
        campaigns_per_week=draw(st.sampled_from([0, 3, 8, 14])),
        campaign_target_count=draw(st.sampled_from([30, 60, 90])),
        standalone_pages_per_week=draw(st.sampled_from([0, 2, 5])),
        n_decoys=draw(st.sampled_from([0, 2, 4])),
    )


@_SLOW
@given(config=sim_configs())
def test_event_wheel_equivalent_to_legacy_loop(config):
    """The rescan oracle is the legacy per-day loop, kept as a test."""
    _assert_equivalent(Simulation(config).run(),
                       RescanSimulation(config).run())


@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=999))
def test_report_bytes_identical(seed):
    """The full rendered report — every figure and table — matches."""
    config = SimulationConfig(
        seed=seed, n_users=150, n_external_edu=60, n_external_other=25,
        horizon_days=4, campaigns_per_week=8, campaign_target_count=60,
        standalone_pages_per_week=2, n_decoys=4,
    )
    assert (full_report(Simulation(config).run())
            == full_report(RescanSimulation(config).run()))


def test_golden_seed_report_bytes():
    """The committed golden bytes come out of the wheel and the oracle."""
    golden = (pathlib.Path(__file__).parent.parent / "analysis" / "golden"
              / "report_smoke_seed7.txt")
    expected = golden.read_text(encoding="utf-8")
    for simulation_type in (Simulation, RescanSimulation):
        result = simulation_type(smoke_scenario(seed=7)).run()
        assert full_report(result) + "\n" == expected, \
            f"{simulation_type.__name__} drifted from golden"
