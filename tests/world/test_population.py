import gc
import random
import tracemalloc
from contextlib import contextmanager

import pytest

from repro import obs
from repro.core.config import SimulationConfig
from repro.net.domains import PRIMARY_PROVIDER
from repro.net.phones import PhoneNumberPlan
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry
from repro.world.messages import MessageKind
from repro.world.population import (
    Population,
    build_population,
    generate_password,
)
from tests.world.equivalence import population_fingerprint


@pytest.fixture(scope="module")
def population():
    rngs = RngRegistry(99)
    return build_population(
        SimulationConfig(n_users=300, n_external_edu=120, n_external_other=60,
                         mean_contacts=6),
        rngs, IdMinter(), PhoneNumberPlan(rngs.stream("phones")),
    )


class TestBuildPopulation:
    def test_counts(self, population):
        assert len(population) == 300
        assert len(population.external_victims) == 180

    def test_all_addresses_on_primary_provider(self, population):
        for account in population.accounts.values():
            assert account.address.domain == PRIMARY_PROVIDER

    def test_lookup_by_address(self, population):
        account = next(iter(population.accounts.values()))
        assert population.lookup_address(account.address) is account

    def test_account_of_user(self, population):
        account = next(iter(population.accounts.values()))
        assert population.account_of_user(account.owner.user_id) is account

    def test_contacts_resolve_to_accounts(self, population):
        account = next(iter(population.accounts.values()))
        for contact in population.contacts_of_account(account):
            assert contact.account_id in population.accounts

    def test_mailboxes_seeded(self, population):
        sizes = [len(account.mailbox) for account in population.accounts.values()]
        assert sum(sizes) / len(sizes) > 5

    def test_financial_users_have_searchable_finance_mail(self, population):
        financial_accounts = [
            account for account in population.accounts.values()
            if account.owner.traits.has_financial_threads
            and len(account.mailbox) >= 20
        ]
        assert financial_accounts
        with_hits = sum(
            1 for account in financial_accounts
            if any(m.kind is MessageKind.FINANCIAL
                   for m in account.mailbox.messages())
        )
        assert with_hits / len(financial_accounts) > 0.7

    def test_mailbox_contacts_include_externals(self, population):
        account = max(population.accounts.values(),
                      key=lambda a: len(a.mailbox))
        correspondents = account.mailbox.contact_addresses()
        externals = [c for c in correspondents
                     if c.domain != PRIMARY_PROVIDER]
        assert externals

    def test_recovery_rates_roughly_configured(self, population):
        accounts = list(population.accounts.values())
        with_phone = sum(1 for a in accounts if a.recovery.phone) / len(accounts)
        assert 0.45 < with_phone < 0.65

    def test_external_pool_mostly_edu(self, population):
        edu = [v for v in population.external_victims
               if v.address.tld == "edu"]
        assert len(edu) == 120
        assert all(v.spam_filter_strength < 0.5 for v in edu)

    def test_deterministic_rebuild(self):
        def build():
            rngs = RngRegistry(5)
            return build_population(
                SimulationConfig(n_users=50, n_external_edu=10,
                                 n_external_other=5, mean_contacts=8),
                rngs, IdMinter(), PhoneNumberPlan(rngs.stream("phones")),
            )

        first, second = build(), build()
        assert sorted(first.accounts) == sorted(second.accounts)
        for account_id in first.accounts:
            assert (first.accounts[account_id].password
                    == second.accounts[account_id].password)
            assert (len(first.accounts[account_id].mailbox)
                    == len(second.accounts[account_id].mailbox))


def _build(n_users, phone_plan=None, **config):
    rngs = RngRegistry(3)
    return build_population(
        SimulationConfig(n_users=n_users, n_external_edu=10,
                         n_external_other=5, mean_contacts=8, **config),
        rngs, IdMinter(), phone_plan or PhoneNumberPlan(rngs.stream("phones")),
    )


@contextmanager
def _gc_set(enabled):
    """Run the block with automatic GC ``enabled``, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@contextmanager
def _collections():
    """The generation of every collection started inside the block."""
    generations = []

    def callback(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.callbacks.append(callback)
    try:
        yield generations
    finally:
        gc.callbacks.remove(callback)


class _NoNumbersLeft(PhoneNumberPlan):
    def mint(self, country):
        raise RuntimeError("no numbers left")


class TestGarbageCollection:
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_one_young_collection_and_caller_setting_kept(self, enabled):
        """2,000 users allocate far past the generation-0 threshold, so
        any automatic collection would show up next to the closing
        ``gc.collect(1)``."""
        with _gc_set(enabled):
            with _collections() as generations:
                population = _build(2_000)
            assert gc.isenabled() is enabled
        assert len(population) == 2_000
        assert generations == [1]

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_caller_setting_kept_when_the_build_raises(self, enabled):
        with _gc_set(enabled):
            with pytest.raises(RuntimeError, match="no numbers left"):
                _build(50, phone_plan=_NoNumbersLeft(random.Random(0)),
                       phone_on_file_rate=1.0)
            assert gc.isenabled() is enabled

    def test_closing_collection_is_a_span_under_the_build(self):
        with obs.recording() as recorder:
            _build(50)
        spans = {span.name: span for span in recorder.spans}
        build, sweep = spans["population.build"], spans["population.build.gc"]
        assert sweep.depth == build.depth + 1
        assert build.start_s <= sweep.start_s
        assert (sweep.start_s + sweep.duration_s
                <= build.start_s + build.duration_s)


class TestBuildMemory:
    def test_peak_stays_near_the_finished_world(self):
        """The contact graph is built straight into its final int lists,
        so the build leaves no transient structure behind: the traced
        peak stays within 10% of what the finished world holds.  A
        per-user adjacency set built first and then copied puts it at
        1.27x."""
        gc.collect()
        tracemalloc.start()
        try:
            population = _build(3_000)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(population) == 3_000
        assert peak <= 1.1 * live


class TestSaturatedWorldIdentity:
    def test_world_past_username_saturation_is_pinned(self):
        """6,000 users overrun the 2,860 bare ``first.last``/``firstNN``
        names, so most primary addresses come from the suffixed attempts
        behind eleven certain rejections — a path the smoke goldens
        (1,200 users) never reach.  Any change to an RNG draw on it,
        rejected or accepted, moves this digest."""
        rngs = RngRegistry(11)
        population = build_population(
            SimulationConfig(n_users=6000, n_external_edu=25,
                             n_external_other=10, mean_contacts=6,
                             mean_history_messages=2.0),
            rngs, IdMinter(), PhoneNumberPlan(rngs.stream("phones")),
        )
        assert population_fingerprint(population, range(35)) == (
            "f7b1a099c65991ff472eb642f8e118be"
            "7c26f23b8a6981a3a2829e3c382ed7e8")


class TestConfigValidation:
    """A world the builder cannot make is refused when its config is
    built, before any simulation copies it."""

    def test_rejects_zero_users(self):
        with pytest.raises(ValueError, match="at least one user"):
            SimulationConfig(n_users=0)

    def test_rejects_odd_contacts(self):
        with pytest.raises(ValueError, match="must be even"):
            SimulationConfig(mean_contacts=7)

    def test_rejects_nonpositive_history_mean(self):
        with pytest.raises(ValueError, match="mean_history_messages"):
            SimulationConfig(mean_history_messages=0)


class TestPasswords:
    def test_generated_passwords_plausible(self, rng):
        for _ in range(50):
            password = generate_password(rng)
            assert len(password) >= 8
            assert any(c.isdigit() for c in password)
