import pytest

from repro.logs.events import HttpRequestEvent, MailReportedEvent
from repro.logs.store import LogStore
from repro.mail.reports import UserReportModel
from repro.net.email_addr import EmailAddress
from repro.net.geoip import build_default_internet
from repro.net.http import Method
from repro.net.ip import IpAllocator
from repro.phishing.campaign import (
    OUTLIER_PROFILE,
    CampaignRunner,
    LureTarget,
    PhishingCampaign,
)
from repro.phishing.forms import FormsHttpLog
from repro.phishing.lure import LureModel
from repro.phishing.pages import PageHosting, PhishingPage
from repro.phishing.templates import AccountType, make_template
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry


@pytest.fixture
def runner():
    rngs = RngRegistry(31)
    allocator = IpAllocator(rngs.stream("alloc"))
    build_default_internet(allocator)
    store = LogStore()
    return store, CampaignRunner(
        lure_model=LureModel(rngs.stream("lure")),
        forms_log=FormsHttpLog(store, allocator, rngs.stream("forms")),
        store=store,
        report_model=UserReportModel(rngs.stream("reports")),
        minter=IdMinter(),
        rng=rngs.stream("campaign"),
    )


def edu_targets(count, gullibility=0.6):
    return [
        LureTarget(
            address=EmailAddress(f"student{i}", "cs.stateu.edu"),
            filter_block_probability=0.3,
            gullibility=gullibility,
        )
        for i in range(count)
    ]


def forms_page(quality=0.8, taken_down_at=None):
    page = PhishingPage(
        page_id="page-000000", target=AccountType.MAIL,
        hosting=PageHosting.FORMS, created_at=0, quality=quality,
        operator="crew",
    )
    if taken_down_at is not None:
        page.take_down(taken_down_at)
    return page


def make_campaign(page, targets, profile=None, target=AccountType.MAIL):
    template = make_template(target, has_url=page is not None)
    kwargs = dict(
        campaign_id="camp-000000", template=template, page=page,
        launch_at=0, targets=targets,
    )
    if profile is not None:
        kwargs["profile"] = profile
    return PhishingCampaign(**kwargs)


class TestValidation:
    def test_url_template_requires_page(self):
        template = make_template(AccountType.MAIL, has_url=True)
        with pytest.raises(ValueError):
            PhishingCampaign(campaign_id="c", template=template, page=None,
                             launch_at=0, targets=[])

    def test_reply_template_rejects_page(self):
        template = make_template(AccountType.MAIL, has_url=False)
        with pytest.raises(ValueError):
            PhishingCampaign(campaign_id="c", template=template,
                             page=forms_page(), launch_at=0, targets=[])


class TestRun:
    def test_counts_consistent(self, runner):
        _store, campaign_runner = runner
        page = forms_page(taken_down_at=10**7)
        result = campaign_runner.run(make_campaign(page, edu_targets(400)))
        assert result.mailed == 400
        assert result.delivered <= 400
        assert result.submissions <= result.visits <= result.delivered
        assert len(result.credentials) == result.submissions

    def test_forms_traffic_logged(self, runner):
        store, campaign_runner = runner
        page = forms_page(taken_down_at=10**7)
        result = campaign_runner.run(make_campaign(page, edu_targets(400)))
        events = store.query(HttpRequestEvent)
        gets = [e for e in events if e.request.method is Method.GET]
        posts = [e for e in events if e.request.method is Method.POST]
        assert len(gets) == result.visits
        assert len(posts) == result.submissions

    def test_posts_carry_victim_addresses(self, runner):
        store, campaign_runner = runner
        page = forms_page(taken_down_at=10**7)
        campaign_runner.run(make_campaign(page, edu_targets(400)))
        posts = [e for e in store.query(HttpRequestEvent)
                 if e.request.method is Method.POST]
        assert posts
        assert all(e.request.submitted_email.endswith(".edu") for e in posts)

    def test_takedown_truncates_traffic(self, runner):
        store, campaign_runner = runner
        page = forms_page(taken_down_at=30)  # dies half an hour in
        result = campaign_runner.run(make_campaign(page, edu_targets(500)))
        assert result.visits < 30
        for event in store.query(HttpRequestEvent):
            assert event.timestamp < 30

    def test_external_submissions_carry_no_account_password(self, runner):
        _store, campaign_runner = runner
        page = forms_page(taken_down_at=10**7)
        result = campaign_runner.run(make_campaign(page, edu_targets(400)))
        assert result.credentials
        assert all(c.password == "external-secret" for c in result.credentials)

    def test_non_mail_campaign_never_yields_mail_passwords(self, runner):
        _store, campaign_runner = runner
        page = PhishingPage(page_id="page-000001", target=AccountType.BANK,
                            hosting=PageHosting.WEB, created_at=0, quality=0.9)
        page.take_down(10**7)
        result = campaign_runner.run(
            make_campaign(page, edu_targets(300), target=AccountType.BANK))
        for credential in result.credentials:
            assert credential.password == "external-secret"


class TestOutlierProfile:
    def test_quiet_period_then_wave(self, runner):
        store, campaign_runner = runner
        page = forms_page(taken_down_at=10**7)
        campaign = make_campaign(page, edu_targets(600),
                                 profile=OUTLIER_PROFILE)
        campaign_runner.run(campaign)
        posts = [e.timestamp for e in store.query(HttpRequestEvent)
                 if e.request.method is Method.POST]
        quiet = OUTLIER_PROFILE.quiet_period
        assert posts
        # Victim submissions only begin after the quiet period.
        assert min(posts) >= quiet

    def test_attacker_test_views_in_quiet_period(self, runner):
        store, campaign_runner = runner
        page = forms_page(taken_down_at=10**7)
        campaign_runner.run(make_campaign(page, edu_targets(50),
                                          profile=OUTLIER_PROFILE))
        gets = [e.timestamp for e in store.query(HttpRequestEvent)
                if e.request.method is Method.GET]
        early = [t for t in gets if t < OUTLIER_PROFILE.quiet_period]
        assert len(early) >= OUTLIER_PROFILE.test_views - 1
