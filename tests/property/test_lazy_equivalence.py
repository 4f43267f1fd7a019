"""Hypothesis differential: lazy vs eager world construction.

Property: for *any* (seed, population shape), deferring mailbox history
and streaming the external pool is invisible — a world left lazy and the
same world with every mailbox materialized right after the build
fingerprint identically, any interleaving of mailbox operations leaves
both worlds identical (delivery into a pending mailbox only queues, so
this pins queue-and-replay), and full simulation runs produce
bit-identical artifacts (same log events, same incidents, same report
text).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.logs.events import Event
from repro.net.email_addr import EmailAddress
from repro.net.phones import PhoneNumberPlan
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry
from repro.world.mailbox import MailFilter
from repro.world.messages import EmailMessage, Folder
from repro.world.population import build_population
from tests.world.equivalence import (
    materialize_histories,
    population_fingerprint,
)

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
    population = build_population(SimulationConfig(**shape), rngs, IdMinter(),
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


_SENDER_DOMAINS = ("cs.stateu.edu", "bank-alerts.com", "primarymail.com")

mailbox_ops = st.lists(st.tuples(
    st.sampled_from(["deliver", "get", "search", "add_filter", "snapshot"]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(_SENDER_DOMAINS),
), min_size=1, max_size=25)


def _apply(population, ops):
    """Run ``ops`` against ``population``; return what each op observed."""
    account_ids = sorted(population.accounts)
    delivered = {}
    observed = []
    for step, (op, pick, domain) in enumerate(ops):
        account = population.accounts[account_ids[pick % len(account_ids)]]
        mailbox = account.mailbox
        if op == "deliver":
            message = EmailMessage(
                message_id=f"op-{step}",
                sender=EmailAddress(f"sender{pick % 7}", domain),
                recipients=(account.address,),
                subject=f"wire transfer {pick % 5}", sent_at=step,
                keywords=("bank",) if pick % 2 else ())
            mailbox.deliver(message, Folder.SPAM if pick % 3 == 0 else Folder.INBOX)
            delivered.setdefault(account.account_id, []).append(message.message_id)
            observed.append(message.folder)
        elif op == "get":
            ids = delivered.get(account.account_id)
            if ids:
                message = mailbox.get(ids[pick % len(ids)])
                observed.append((message.message_id, message.folder))
        elif op == "search":
            query = ("bank", "wire transfer", "transfer 3", "is:starred")[pick % 4]
            observed.append([m.message_id for m in mailbox.search(query)])
        elif op == "add_filter":
            mailbox.add_filter(MailFilter(
                filter_id=f"filter-{step}", created_at=step,
                created_by_hijacker=True, match_sender_domain=domain,
                move_to=Folder.TRASH))
        else:
            observed.append(sorted(mailbox.snapshot(now=step).message_states.items()))
    return observed


@_SLOW
@given(seed=st.integers(min_value=0, max_value=2**32),
       n_users=st.integers(min_value=2, max_value=30), ops=mailbox_ops)
def test_mailbox_operation_interleavings_identical(seed, n_users, ops):
    shape = dict(n_users=n_users, n_external_edu=5, n_external_other=5,
                 mean_contacts=4, mean_history_messages=12.0)
    lazy = _build(seed, shape, lazy=True)
    eager = _build(seed, shape, lazy=False)
    assert _apply(lazy, ops) == _apply(eager, ops)
    assert population_fingerprint(lazy) == population_fingerprint(eager)


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
            for event_type in Event.__subclasses__()
            for event in store.query(event_type)
        ]

    lazy_events = all_events(lazy_result.store)
    assert len(lazy_events) == len(lazy_result.store)
    assert lazy_events == all_events(eager_result.store)
    assert ([r.outcome for r in lazy_result.incidents]
            == [r.outcome for r in eager_result.incidents])
    assert lazy_result.summary() == eager_result.summary()
    assert population_fingerprint(lazy_result.population) \
        == population_fingerprint(eager_result.population)
