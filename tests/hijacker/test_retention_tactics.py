import pytest

from repro.hijacker.groups import Era
from repro.hijacker.retention import ERA_PROFILES
from repro.logs.events import Actor, SettingsChangeEvent

from tests.hijacker.harness import build_harness, richest_account
from tests.net.lookalike import looks_like


class TestEraProfiles:
    def test_mass_deletion_evolution(self):
        assert ERA_PROFILES[Era.Y2011].mass_delete_given_password_change == 0.46
        assert ERA_PROFILES[Era.Y2012].mass_delete_given_password_change == 0.016

    def test_recovery_change_evolution(self):
        assert ERA_PROFILES[Era.Y2011].recovery_change_rate == 0.60
        assert ERA_PROFILES[Era.Y2012].recovery_change_rate == 0.21

    def test_phone_lockout_2012_only(self):
        assert ERA_PROFILES[Era.Y2011].two_factor_lockout_rate == 0.0
        assert ERA_PROFILES[Era.Y2012].two_factor_lockout_rate > 0.0
        assert ERA_PROFILES[Era.Y2014].two_factor_lockout_rate == 0.0

    def test_2012_filter_and_replyto_rates(self):
        profile = ERA_PROFILES[Era.Y2012]
        assert profile.mail_filter_rate == 0.15
        assert profile.reply_to_rate == 0.26


def apply_many(era, n=300, seed=13):
    harness = build_harness(seed=seed, era=era, n_users=60)
    playbook = harness.driver.retention
    reports = []
    # A fresh victim each time: tactic application mutates the account.
    accounts = sorted(harness.population.accounts.values(),
                      key=lambda a: a.account_id)
    for index in range(n):
        account = accounts[index % len(accounts)]
        reports.append(playbook.apply(account, harness.crew, now=1000 + index))
    return harness, reports


class TestApplication2012:
    def test_rates_near_profile(self):
        _harness, reports = apply_many(Era.Y2012, n=400)
        n = len(reports)
        password = sum(r.changed_password for r in reports) / n
        filters = sum(r.installed_filter for r in reports) / n
        reply_to = sum(r.set_reply_to for r in reports) / n
        recovery = sum(r.changed_recovery for r in reports) / n
        assert 0.40 < password < 0.60
        assert 0.10 < filters < 0.21
        assert 0.19 < reply_to < 0.34
        assert 0.14 < recovery < 0.29

    def test_mass_delete_rare_in_2012(self):
        _harness, reports = apply_many(Era.Y2012, n=400)
        with_password = [r for r in reports if r.changed_password]
        deleted = sum(1 for r in with_password if r.mass_deleted)
        assert deleted / len(with_password) < 0.10

    def test_doppelganger_created_when_diverting(self):
        _harness, reports = apply_many(Era.Y2012, n=200)
        for report in reports:
            if report.installed_filter or report.set_reply_to:
                assert report.doppelganger is not None

    def test_changes_logged_with_hijacker_actor(self):
        harness, _reports = apply_many(Era.Y2012, n=100)
        changes = harness.store.query(SettingsChangeEvent)
        assert changes
        assert all(c.actor is Actor.MANUAL_HIJACKER for c in changes)


class TestApplication2011:
    def test_mass_delete_common_in_2011(self):
        _harness, reports = apply_many(Era.Y2011, n=400)
        with_password = [r for r in reports if r.changed_password]
        deleted = sum(1 for r in with_password if r.mass_deleted)
        assert 0.33 < deleted / len(with_password) < 0.60

    def test_no_phone_lockout_in_2011(self):
        _harness, reports = apply_many(Era.Y2011, n=300)
        assert not any(r.enabled_two_factor for r in reports)


class TestSideEffects:
    def test_password_change_locks_account(self):
        harness = build_harness(seed=17, era=Era.Y2012)
        playbook = harness.driver.retention
        account = richest_account(harness)
        original = account.password
        for attempt in range(60):
            report = playbook.apply(account, harness.crew, now=1000 + attempt)
            if report.changed_password:
                break
        else:
            pytest.fail("password change never applied in 60 tries")
        assert account.password != original
        assert account.password_changed_by_hijacker

    def test_two_factor_phone_from_crew_mix(self):
        harness = build_harness(seed=19, era=Era.Y2012)
        # Use a phone-lockout crew (lagos).
        from repro.hijacker.groups import default_crews

        lagos = next(c for c in default_crews() if c.name == "lagos")
        playbook = harness.driver.retention
        accounts = sorted(harness.population.accounts.values(),
                          key=lambda a: a.account_id)
        phones = []
        for index, account in enumerate(accounts * 5):
            report = playbook.apply(account, lagos, now=1000 + index)
            if report.enabled_two_factor:
                phones.append(account.two_factor_phone)
        assert phones
        crew_countries = {country for country, _ in lagos.phone_country_mix}
        assert all(p.country() in crew_countries for p in phones)

    def test_filter_forwards_to_lookalike(self):
        harness = build_harness(seed=23, era=Era.Y2012)
        playbook = harness.driver.retention
        accounts = sorted(harness.population.accounts.values(),
                          key=lambda a: a.account_id)
        for index, account in enumerate(accounts * 5):
            report = playbook.apply(account, harness.crew, now=1000 + index)
            if report.installed_filter:
                assert looks_like(report.doppelganger.address, account.address)
                assert any(f.created_by_hijacker for f in account.mailbox.filters)
                return
        pytest.fail("no filter installed across many applications")
