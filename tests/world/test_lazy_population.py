"""Lazy world construction: the determinism contract and its triggers.

The population builder defers per-account mailbox history behind a
child-seeded materializer.  These tests pin the contract: nothing is
seeded until first access, every message-reading entry point (and
installing a filter) triggers seeding, delivery only queues, access
order is irrelevant, and a world left lazy is bit-identical to the same
world with every mailbox touched right after the build.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro import obs
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.logs.store import LogStore
from repro.mail.reports import UserReportModel
from repro.net.geoip import build_default_internet
from repro.net.ip import IpAllocator
from repro.net.phones import PhoneNumberPlan
from repro.phishing.campaign import CampaignRunner, LureTarget, PhishingCampaign
from repro.phishing.forms import FormsHttpLog
from repro.phishing.lure import LureModel
from repro.phishing.templates import AccountType, make_template
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry
from tests.world.equivalence import (
    account_fingerprint,
    history_pending,
    mailbox_fingerprint,
    materialize_histories,
    population_fingerprint,
)
from repro.world.mailbox import MailFilter
from repro.world.messages import EmailMessage, Folder, MessageKind
from repro.world.population import (
    ExternalVictimPool,
    build_population,
)


def pending_history_count(population) -> int:
    """Accounts whose mailbox history has not materialized yet."""
    return sum(1 for account in population.accounts.values()
               if history_pending(account.mailbox))


def materialized_count(pool: ExternalVictimPool) -> int:
    """How many external victims the pool has constructed so far."""
    return len(pool._cache)


def build(seed: int = 11, lazy: bool = True, n_users: int = 60,
          **overrides):
    rngs = RngRegistry(seed)
    config = SimulationConfig(n_users=n_users, **{
        "n_external_edu": 25, "n_external_other": 10, "mean_contacts": 6,
        **overrides})
    population = build_population(config, rngs, IdMinter(),
                                  PhoneNumberPlan(rngs.stream("phones")))
    return population if lazy else materialize_histories(population)


class TestLazyTriggers:
    def test_nothing_materialized_at_build(self):
        population = build(lazy=True)
        assert pending_history_count(population) == len(population)
        # At 1,500 users the build must still seed no history and mint
        # no external victim: either would put per-user work back on the
        # build path.
        with obs.recording() as recorder:
            population = build(seed=1234, n_users=1_500, n_external_edu=300,
                               n_external_other=125, mean_contacts=8)
        assert pending_history_count(population) == 1_500
        for counter in ("population.build.history_materialized",
                        "population.build.external_materialized"):
            assert counter not in recorder.counters, counter

    def test_eager_build_has_no_pending_history(self):
        population = build(lazy=False)
        assert pending_history_count(population) == 0

    @pytest.mark.parametrize("touch", [
        lambda mailbox: len(mailbox),
        lambda mailbox: mailbox.messages(),
        lambda mailbox: mailbox.search("wire transfer"),
        lambda mailbox: mailbox.contact_addresses(),
        lambda mailbox: mailbox.contact_count(),
        lambda mailbox: mailbox.starred(),
        lambda mailbox: mailbox.snapshot(now=0),
        lambda mailbox: mailbox.delete_all(),
        lambda mailbox: mailbox.add_filter(MailFilter(
            filter_id="filter-0", created_at=0, created_by_hijacker=True,
            move_to=Folder.TRASH)),
    ], ids=["len", "messages", "search", "contacts", "contact_count",
            "starred", "snapshot", "delete_all", "add_filter"])
    def test_every_message_entry_point_materializes(self, touch):
        population = build(lazy=True)
        account = next(iter(population.accounts.values()))
        assert history_pending(account.mailbox)
        touch(account.mailbox)
        assert not history_pending(account.mailbox)

    def test_materialization_happens_once(self):
        population = build(lazy=True)
        account = next(iter(population.accounts.values()))
        first = len(account.mailbox)
        assert len(account.mailbox) == first
        assert mailbox_fingerprint(account.mailbox) \
            == mailbox_fingerprint(account.mailbox)

    def test_deliver_files_history_before_new_mail(self):
        """A simulated message must never pre-date history in arrival
        order — materialization runs before the delivery is filed."""
        population = build(lazy=True)
        account = max(build(lazy=False).accounts.values(),
                      key=lambda a: len(a.mailbox))
        lazy_account = population.accounts[account.account_id]
        probe = EmailMessage(
            message_id="probe-1", sender=account.address.with_username("new"),
            recipients=(lazy_account.address,), subject="fresh", sent_at=5)
        lazy_account.mailbox.deliver(probe)
        order = lazy_account.mailbox.messages(include_deleted=True)
        assert order[-1].message_id == "probe-1"
        assert all(m.message_id.startswith("msgh-") for m in order[:-1])


def probe(account, index: int, **overrides) -> EmailMessage:
    fields = dict(
        message_id=f"probe-{index}",
        sender=account.address.with_username(f"sender{index}"),
        recipients=(account.address,), subject=f"invoice {index}",
        sent_at=10 + index, keywords=("wire transfer",))
    fields.update(overrides)
    return EmailMessage(**fields)


class TestDeferredDelivery:
    """Delivery into a pending mailbox queues; reads replay the queue."""

    def test_deliver_keeps_history_pending(self):
        account = next(iter(build(lazy=True).accounts.values()))
        account.mailbox.deliver(probe(account, 0))
        account.mailbox.file_sent(probe(account, 1))
        assert history_pending(account.mailbox)

    def test_get_of_queued_id_does_not_materialize(self):
        account = next(iter(build(lazy=True).accounts.values()))
        message = probe(account, 0)
        account.mailbox.deliver(message, folder=Folder.SPAM)
        assert account.mailbox.get("probe-0") is message
        assert message.folder is Folder.SPAM
        assert history_pending(account.mailbox)

    def test_get_of_unknown_id_materializes_then_raises(self):
        account = next(iter(build(lazy=True).accounts.values()))
        with pytest.raises(KeyError):
            account.mailbox.get("probe-missing")
        assert not history_pending(account.mailbox)

    def test_duplicate_delivery_into_pending_mailbox_raises(self):
        account = next(iter(build(lazy=True).accounts.values()))
        account.mailbox.deliver(probe(account, 0))
        with pytest.raises(ValueError):
            account.mailbox.deliver(probe(account, 0))
        assert history_pending(account.mailbox)

    def test_queued_mail_matches_eager_delivery(self):
        """Queue-and-replay files mail exactly as delivering it into an
        already materialized mailbox would: order, folders, contacts."""
        lazy = build(seed=19, lazy=True)
        eager = build(seed=19, lazy=False)
        for world in (lazy, eager):
            for index, account_id in enumerate(sorted(world.accounts)[:12]):
                account = world.accounts[account_id]
                account.mailbox.deliver(probe(account, index),
                                        folder=Folder.SPAM if index % 3 else Folder.INBOX)
                account.mailbox.file_sent(probe(account, 100 + index))
        assert pending_history_count(lazy) == len(lazy)
        assert population_fingerprint(lazy) == population_fingerprint(eager)

    def test_mailbox_with_queued_mail_survives_pickle(self):
        population = build(seed=53, lazy=True)
        reference = build(seed=53, lazy=False)
        for world in (population, reference):
            account = world.accounts[sorted(world.accounts)[0]]
            account.mailbox.deliver(probe(account, 0))
        clone = pickle.loads(pickle.dumps(population))
        account = clone.accounts[sorted(clone.accounts)[0]]
        assert history_pending(account.mailbox)
        assert account.mailbox.get("probe-0").subject == "invoice 0"
        assert population_fingerprint(clone) == population_fingerprint(reference)

    def test_search_after_materialization_equals_full_scan(self):
        population = build(seed=29, lazy=True)
        account = max(build(seed=29, lazy=False).accounts.values(),
                      key=lambda a: len(a.mailbox))
        mailbox = population.accounts[account.account_id].mailbox
        for index in range(3):
            mailbox.deliver(probe(account, index))
        for query in ("wire transfer", "invoice", "bank", "is:starred", "an"):
            assert mailbox.search(query) \
                == [m for m in mailbox.messages() if m.matches(query)], query
        mailbox.deliver(probe(account, 9, subject="late invoice"))
        assert [m.message_id for m in mailbox.search("late invoice")] == ["probe-9"]
        assert [m.message_id for m in mailbox.search("invoice")][-4:] \
            == ["probe-0", "probe-1", "probe-2", "probe-9"]


class TestLureDeliveryStaysLazy:
    def test_lure_campaign_builds_no_history(self):
        """A lure-only campaign files every lure without seeding a single
        mailbox history; each lure is still reachable by id (as Dataset
        1 curation reads reported lures)."""
        population = build(seed=41, n_users=40)
        rngs = RngRegistry(41)
        allocator = IpAllocator(rngs.stream("alloc"))
        build_default_internet(allocator)
        store = LogStore()
        runner = CampaignRunner(
            lure_model=LureModel(rngs.stream("lure")),
            forms_log=FormsHttpLog(store, allocator, rngs.stream("forms")),
            store=store,
            report_model=UserReportModel(rngs.stream("reports")),
            minter=IdMinter(),
            rng=rngs.stream("campaign"),
        )
        accounts = [population.accounts[a] for a in sorted(population.accounts)]
        campaign = PhishingCampaign(
            campaign_id="camp-000000",
            template=make_template(AccountType.MAIL, has_url=False),
            page=None, launch_at=0,
            targets=[LureTarget(address=account.address,
                                filter_block_probability=0.0,
                                gullibility=0.0, account=account)
                     for account in accounts],
        )
        pending_before = pending_history_count(population)
        result = runner.run(campaign)
        assert result.delivered == len(accounts) > 0
        assert pending_history_count(population) == pending_before
        lure_ids = IdMinter()
        for account in accounts:
            lure = account.mailbox.get(lure_ids.mint("msg"))
            assert lure.kind is MessageKind.PHISHING
            assert lure.recipients == (account.address,)
        assert pending_history_count(population) == pending_before


class TestLazyEagerEquivalence:
    def test_worlds_bit_identical(self):
        lazy = build(seed=23, lazy=True)
        eager = build(seed=23, lazy=False)
        assert population_fingerprint(lazy, external_sample=range(35)) \
            == population_fingerprint(eager, external_sample=range(35))

    def test_pinned_world_bit_identical(self):
        """A 300-user world at the default contact degree has one pinned
        fingerprint, whether left lazy or with every history seeded."""
        pinned = ("8f58014c6dab8406644dd3b156bc5afa"
                  "d307d39587210b202798244421e48f5f")
        for lazy in (True, False):
            population = build(seed=1234, lazy=lazy, n_users=300,
                               n_external_edu=60, n_external_other=25,
                               mean_contacts=8)
            assert population_fingerprint(
                population, external_sample=range(40)) == pinned, lazy

    def test_access_order_is_irrelevant(self):
        forward = build(seed=31, lazy=True)
        backward = build(seed=31, lazy=True)
        ids = sorted(forward.accounts)
        for account_id in ids:
            forward.accounts[account_id].mailbox.messages()
        for account_id in reversed(ids):
            backward.accounts[account_id].mailbox.messages()
        assert population_fingerprint(forward) == population_fingerprint(backward)

    def test_partial_touch_does_not_perturb_the_rest(self):
        """Materializing one mailbox must not change any other."""
        touched = build(seed=47, lazy=True)
        untouched = build(seed=47, lazy=True)
        victim_id = sorted(touched.accounts)[3]
        touched.accounts[victim_id].mailbox.search("bank")
        for account_id in sorted(touched.accounts):
            assert account_fingerprint(touched.accounts[account_id]) \
                == account_fingerprint(untouched.accounts[account_id]), account_id

    def test_different_seeds_differ(self):
        assert population_fingerprint(build(seed=5, lazy=True)) \
            != population_fingerprint(build(seed=6, lazy=True))

    def test_pending_world_survives_pickle(self):
        """The parallel runner ships whole worlds across processes, so
        deferred seeders must pickle — and still materialize correctly
        on the other side."""
        population = build(seed=53, lazy=True)
        clone = pickle.loads(pickle.dumps(population))
        assert pending_history_count(clone) == len(population) > 0
        assert population_fingerprint(clone) \
            == population_fingerprint(build(seed=53, lazy=False))


class TestExternalVictimPool:
    def test_lazy_and_order_independent(self):
        pool_a = ExternalVictimPool(99, n_edu=40, n_other=20)
        pool_b = ExternalVictimPool(99, n_edu=40, n_other=20)
        assert materialized_count(pool_a) == 0
        forward = [pool_a[i] for i in range(len(pool_a))]
        backward = [pool_b[i] for i in reversed(range(len(pool_b)))]
        assert [str(v.address) for v in forward] \
            == [str(v.address) for v in reversed(backward)]
        assert [v.gullibility for v in forward] \
            == [v.gullibility for v in list(reversed(backward))]

    def test_sampling_materializes_only_the_sample(self):
        pool = ExternalVictimPool(7, n_edu=500, n_other=200)
        chosen = random.Random(1).sample(pool, 25)
        assert len(chosen) == 25
        assert materialized_count(pool) <= 60  # sample overhead only

    def test_campaign_scale_pick_materializes_only_the_targets(self):
        """A rate-preset campaign picks 390 of 1,700 externals.  At that
        k ``random.sample`` would copy the whole pool, so targeting must
        sample indices, and it must draw the same victims from the same
        RNG state as sampling the pool itself."""
        simulation = Simulation(SimulationConfig(
            seed=3, n_users=300, n_external_edu=1_200, n_external_other=500,
            campaign_target_count=600, provider_target_fraction=0.35))
        pool = simulation.population.external_victims
        assert len(pool) == 1_700 and materialized_count(pool) == 0
        rng, reference = random.Random(8), random.Random(8)
        targets = simulation._pick_targets(rng, is_outlier=False)
        externals = [t for t in targets if t.account is None]
        assert len(externals) == 390
        assert materialized_count(pool) == 390
        reference.sample(simulation._provider_pool, 210)
        expected = reference.sample(list(pool), 390)
        assert [t.address for t in externals] == [v.address for v in expected]
        assert rng.getstate() == reference.getstate()

    def test_edu_other_split(self):
        pool = ExternalVictimPool(3, n_edu=30, n_other=10)
        assert all(v.address.tld == "edu" for v in pool[:30])
        assert all(v.address.tld != "edu" for v in pool[30:])
        assert all(v.spam_filter_strength == 0.3 for v in pool[:30])

    def test_index_errors(self):
        pool = ExternalVictimPool(3, n_edu=2, n_other=1)
        assert pool[-1].address == pool[2].address
        with pytest.raises(IndexError):
            pool[3]

    def test_victims_at_matches_indexing_and_materializes_only_those(self):
        def make():
            return ExternalVictimPool(5, n_edu=50, n_other=30)

        batch_pool, indexed_pool = make(), make()
        indices = [71, 3, 49, 50, 3, 0, 79]
        batch = batch_pool.victims_at(indices)
        assert materialized_count(batch_pool) == 6  # 3 is asked twice
        assert batch[1] is batch[4]
        assert batch == [indexed_pool[i] for i in indices]
        assert batch_pool.victims_at([49, 0]) == [batch[2], batch[5]]
        assert materialized_count(batch_pool) == 6

    def test_victims_at_rejects_out_of_range(self):
        pool = ExternalVictimPool(3, n_edu=2, n_other=1)
        for index in (3, -1):
            with pytest.raises(IndexError):
                pool.victims_at([index])
        assert materialized_count(pool) == 0
