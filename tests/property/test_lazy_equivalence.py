"""Hypothesis differential: lazy vs eager world construction.

Property: for *any* (seed, population shape), deferring mailbox history
and streaming the external pool is invisible — a world left lazy and the
same world with every mailbox materialized right after the build
fingerprint identically, and full simulation runs produce bit-identical
artifacts (same log events, same incidents, same report text).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.net.phones import PhoneNumberPlan
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry
from repro.world.equivalence import (
    materialize_histories,
    population_fingerprint,
)
from repro.world.population import PopulationConfig, build_population

_SLOW = settings(max_examples=8, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@st.composite
def population_shapes(draw):
    return dict(
        n_users=draw(st.integers(min_value=2, max_value=90)),
        n_external_edu=draw(st.integers(min_value=0, max_value=40)),
        n_external_other=draw(st.integers(min_value=0, max_value=20)),
        mean_contacts=draw(st.sampled_from([2, 4, 6, 8])),
        mean_history_messages=draw(st.sampled_from([4.0, 12.0, 30.0])),
    )


def _build(seed: int, shape: dict, lazy: bool):
    rngs = RngRegistry(seed)
    population = build_population(PopulationConfig(**shape), rngs, IdMinter(),
                                  PhoneNumberPlan(rngs.stream("phones")))
    return population if lazy else materialize_histories(population)


@_SLOW
@given(seed=st.integers(min_value=0, max_value=2**32), shape=population_shapes())
def test_population_fingerprints_identical(seed, shape):
    lazy = _build(seed, shape, lazy=True)
    eager = _build(seed, shape, lazy=False)
    sample = range(min(10, shape["n_external_edu"] + shape["n_external_other"]))
    assert population_fingerprint(lazy, external_sample=sample) \
        == population_fingerprint(eager, external_sample=sample)


@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=999))
def test_simulation_artifacts_identical(seed):
    """End-to-end: when history materializes never shows up in the
    measurement."""
    def run(lazy: bool):
        config = SimulationConfig(
            seed=seed, n_users=150, n_external_edu=60, n_external_other=25,
            horizon_days=4, campaigns_per_week=8, campaign_target_count=60,
            standalone_pages_per_week=2, n_decoys=4,
        )
        simulation = Simulation(config)
        if not lazy:
            materialize_histories(simulation.population)
        return simulation.run()

    lazy_result, eager_result = run(True), run(False)

    def all_events(store):
        return [
            repr(event)
            for event_type in sorted(store.event_types(), key=lambda t: t.__name__)
            for event in store.query(event_type)
        ]

    assert all_events(lazy_result.store) == all_events(eager_result.store)
    assert ([r.outcome for r in lazy_result.incidents]
            == [r.outcome for r in eager_result.incidents])
    assert lazy_result.summary() == eager_result.summary()
    assert population_fingerprint(lazy_result.population) \
        == population_fingerprint(eager_result.population)
