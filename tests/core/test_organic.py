import hashlib

import pytest

from repro import Simulation
from repro.core.organic import OrganicActivityModel, _poisson
from repro.core.scenarios import smoke_scenario
from repro.logs.events import Actor, LoginEvent, MailReportedEvent, MailSentEvent

from tests.hijacker.harness import build_harness
from tests.world.equivalence import history_pending


@pytest.fixture
def setup():
    harness = build_harness(seed=83, n_users=60)
    model = OrganicActivityModel(
        master_seed=83,
        population=harness.population,
        auth=harness.auth,
        mail=harness.mail,
        search=harness.search,
        allocator=harness.ip_pool.allocator,
    )
    return harness, model


def pick_account(harness):
    return sorted(harness.population.accounts.values(),
                  key=lambda a: a.account_id)[0]


class TestMaterialization:
    def test_day_produces_owner_events(self, setup):
        harness, model = setup
        account = pick_account(harness)
        model.materialize_window(account, center_day=5, back=1, forward=1,
                                 horizon_days=30)
        logins = harness.store.query(
            LoginEvent, where=lambda e: e.account_id == account.account_id)
        sends = harness.store.query(
            MailSentEvent, where=lambda e: e.account_id == account.account_id)
        assert logins or sends
        assert all(e.actor is Actor.OWNER for e in logins + sends)

    def test_idempotent(self, setup):
        harness, model = setup
        account = pick_account(harness)
        model.materialize_day(account, day=3)
        count_before = len(harness.store)
        assert not model.materialize_day(account, day=3)
        assert len(harness.store) == count_before

    def test_window_clamped_to_horizon(self, setup):
        _harness, model = setup
        account = pick_account(_harness)
        created = model.materialize_window(account, center_day=0, back=5,
                                           forward=2, horizon_days=3)
        assert created == 3  # days 0..2 only

    def test_covered_window_skips_per_day_probes(self, setup):
        """A window inside an already-materialized span creates nothing.

        Repeat victims request near-identical windows; every day in them
        is already in the materialized set, so no event is written twice.
        """
        harness, model = setup
        account = pick_account(harness)
        model.materialize_window(account, center_day=5, back=3, forward=3,
                                 horizon_days=30)
        count_before = len(harness.store)
        created = model.materialize_window(
            account, center_day=5, back=2, forward=2, horizon_days=30)
        assert created == 0
        assert len(harness.store) == count_before

    def test_adjacent_windows_merge_coverage(self, setup):
        harness, model = setup
        account = pick_account(harness)
        model.materialize_window(account, center_day=2, back=2, forward=2,
                                 horizon_days=30)
        model.materialize_window(account, center_day=7, back=2, forward=2,
                                 horizon_days=30)
        # [0,4] and [5,9] are adjacent, so a window straddling both is
        # fully materialized already.
        count_before = len(harness.store)
        assert model.materialize_window(account, center_day=5, back=4,
                                        forward=4, horizon_days=30) == 0
        assert len(harness.store) == count_before

    def test_deterministic_per_account_day(self):
        def run():
            harness = build_harness(seed=83, n_users=60)
            model = OrganicActivityModel(
                master_seed=83, population=harness.population,
                auth=harness.auth, mail=harness.mail, search=harness.search,
                allocator=harness.ip_pool.allocator)
            account = pick_account(harness)
            model.materialize_day(account, day=7)
            return [e.timestamp for e in harness.store.query(MailSentEvent)]

        assert run() == run()

    def test_stable_home_ip(self, setup):
        """Most logins come from the same home address; the rare travel
        login is the documented exception (the §8.1 FP source)."""
        harness, model = setup
        accounts = sorted(harness.population.accounts.values(),
                          key=lambda a: a.account_id)
        ip_counts = []
        for account in accounts[:15]:
            model.materialize_window(account, center_day=5, back=2,
                                     forward=2, horizon_days=30)
            logins = harness.store.query(
                LoginEvent,
                where=lambda e, a=account.account_id: e.account_id == a)
            if logins:
                top = max(
                    {str(e.ip) for e in logins},
                    key=lambda ip: sum(1 for e in logins if str(e.ip) == ip))
                ip_counts.append(
                    sum(1 for e in logins if str(e.ip) == top) / len(logins))
        assert ip_counts
        assert sum(ip_counts) / len(ip_counts) > 0.85

    def test_daily_fanout_narrow(self, setup):
        """Owners write to a small circle — the §5.3 baseline."""
        harness, model = setup
        accounts = sorted(harness.population.accounts.values(),
                          key=lambda a: a.account_id)
        distinct_per_day = []
        for account in accounts[:20]:
            model.materialize_day(account, day=10)
            sends = harness.store.query(
                MailSentEvent,
                where=lambda e, a=account.account_id: e.account_id == a)
            recipients = set()
            for event in sends:
                recipients.update(event.distinct_recipients)
            if sends:
                distinct_per_day.append(len(recipients))
        if distinct_per_day:
            assert sum(distinct_per_day) / len(distinct_per_day) < 12


class TestPoisson:
    def test_zero_mean(self, rng):
        assert _poisson(rng, 0) == 0

    def test_mean_matches(self, rng):
        samples = [_poisson(rng, 4.0) for _ in range(3000)]
        assert 3.7 < sum(samples) / len(samples) < 4.3


#: Per smoke seed: ``(lines, materialized mailboxes, sha256)`` of
#: :func:`send_lines` on a fresh run of that world.
SMOKE_SENDS = {
    7: (2147, 44,
        "ef1cca50d985738cc267bac59c6e6aaee3d99976698174cedf45bf20524d5528"),
    11: (703, 21,
         "81c49c01e42ac5d36159d4b70a5d3d278b0397b7a75f0889687e4baf51c50ef8"),
}


def send_lines(result):
    """Every sent and reported mail record, then each materialized
    mailbox's ``(message id, folder)`` list, one line per mailbox."""
    lines = [repr(event) for event in result.store.query(MailSentEvent)]
    lines += [repr(event) for event in result.store.query(MailReportedEvent)]
    accounts = result.population.accounts
    for account_id in sorted(accounts):
        mailbox = accounts[account_id].mailbox
        if history_pending(mailbox):
            continue
        lines.append(account_id + " " + " ".join(
            f"{message.message_id}:{message.folder.value}"
            for message in mailbox.messages(include_deleted=True)))
    return lines


class TestSmokeSends:
    """Every owner, hijacker and lure mail record of a seeded world,
    pinned without the report.

    A reordered or extra draw in owner sends, spam filing or report
    scheduling moves a record or a placement here before it reaches
    any artifact.  Each world is run fresh: reads by other tests of a
    shared result would materialize more mailboxes.
    """

    @pytest.mark.parametrize("seed", sorted(SMOKE_SENDS))
    def test_send_records(self, seed):
        result = Simulation(smoke_scenario(seed)).run()
        lines = send_lines(result)
        materialized = sum(
            1 for account in result.population.accounts.values()
            if not history_pending(account.mailbox))
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert (len(lines), materialized, digest) == SMOKE_SENDS[seed]
