import pytest

from repro.net.email_addr import EmailAddress
from repro.net.http import HttpRequest, Method, ReferrerClass, classify_referrer
from repro.net.ip import IpAddress


class TestClassifyReferrer:
    def test_blank(self):
        assert classify_referrer(None) is ReferrerClass.BLANK
        assert classify_referrer("") is ReferrerClass.BLANK

    def test_yahoo_beats_generic_mail(self):
        assert classify_referrer(
            "https://mail.yahoo.example/x") is ReferrerClass.YAHOO

    def test_gmail_beats_google(self):
        assert classify_referrer(
            "https://mail.google.example/legacy") is ReferrerClass.GMAIL
        assert classify_referrer(
            "https://google.example/search") is ReferrerClass.GOOGLE

    def test_webmail_generic(self):
        assert classify_referrer(
            "http://webmail.smallhost.net/inbox") is ReferrerClass.WEBMAIL_GENERIC

    def test_microsoft_variants(self):
        for url in ("https://outlook.example/owa", "https://hotmail.example/x",
                    "https://mail.live.com/y"):
            assert classify_referrer(url) is ReferrerClass.MICROSOFT

    def test_other_sources(self):
        assert classify_referrer("https://phishtank.example/check") is \
            ReferrerClass.PHISHTANK
        assert classify_referrer("https://facebook.example/l.php") is \
            ReferrerClass.FACEBOOK
        assert classify_referrer("https://yandex.example/mail") is \
            ReferrerClass.YANDEX

    def test_unknown_is_other(self):
        assert classify_referrer(
            "http://portal.randomsite.org/x") is ReferrerClass.OTHER

    def test_only_host_considered(self):
        # Path mentions google but host doesn't: not Google.
        assert classify_referrer(
            "http://randomsite.org/google.example") is ReferrerClass.OTHER


class TestHttpRequest:
    def _ip(self):
        return IpAddress.parse("20.0.0.1")

    def test_get_cannot_carry_submission(self):
        with pytest.raises(ValueError):
            HttpRequest(timestamp=10, method=Method.GET, page_id="p",
                        client_ip=self._ip(),
                        submitted_email=EmailAddress.parse("a@b.edu"))

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            HttpRequest(timestamp=-1, method=Method.GET, page_id="p",
                        client_ip=self._ip())
