import pytest

from repro.logs.events import HttpRequestEvent
from repro.logs.store import LogStore
from repro.net.email_addr import EmailAddress
from repro.net.geoip import build_default_internet
from repro.net.http import Method
from repro.net.ip import IpAllocator
from repro.phishing.forms import FormsHttpLog
from repro.phishing.pages import PageHosting, PhishingPage
from repro.phishing.templates import AccountType


@pytest.fixture
def forms(rng):
    allocator = IpAllocator(rng)
    build_default_internet(allocator)
    store = LogStore()
    return store, FormsHttpLog(store, allocator, rng)


def page(hosting=PageHosting.FORMS):
    return PhishingPage(page_id="page-000000", target=AccountType.MAIL,
                        hosting=hosting, created_at=0, quality=0.5)


class TestRecording:
    def test_view_logged_as_get(self, forms):
        store, log = forms
        log.record_view(page(), at=100, referrer=None)
        events = store.query(HttpRequestEvent)
        assert len(events) == 1
        assert events[0].request.method is Method.GET
        assert events[0].request.page_id == "page-000000"

    def test_submission_logged_as_post(self, forms):
        store, log = forms
        log.record_submission(page(), at=100,
                              submitted_email=EmailAddress.parse("a@b.edu"))
        events = store.query(HttpRequestEvent)
        assert events[0].request.method is Method.POST
        assert events[0].request.submitted_email == EmailAddress.parse("a@b.edu")

    def test_referrer_preserved(self, forms):
        store, log = forms
        log.record_view(page(), at=100, referrer="https://mail.yahoo.example/x")
        assert store.query(HttpRequestEvent)[0].request.referrer

    def test_web_pages_rejected(self, forms):
        _store, log = forms
        with pytest.raises(ValueError):
            log.record_view(page(hosting=PageHosting.WEB), at=100)

    def test_victim_ips_allocated(self, forms):
        store, log = forms
        log.record_view(page(), at=100)
        log.record_view(page(), at=101)
        events = store.query(HttpRequestEvent)
        assert events[0].request.client_ip != events[1].request.client_ip
