from collections import Counter

from repro.phishing.templates import (
    EMAIL_TARGET_WEIGHTS,
    EMAIL_TEMPLATES,
    PAGE_TARGET_WEIGHTS,
    URL_EMAIL_FRACTION,
    AccountType,
    sample_email_target,
    sample_email_template,
    sample_page_target,
)


class TestWeights:
    def test_email_weights_match_table2(self):
        assert EMAIL_TARGET_WEIGHTS[AccountType.MAIL] == 35
        assert EMAIL_TARGET_WEIGHTS[AccountType.BANK] == 21
        assert sum(EMAIL_TARGET_WEIGHTS.values()) == 100

    def test_page_weights_match_table2(self):
        assert PAGE_TARGET_WEIGHTS[AccountType.MAIL] == 27
        assert PAGE_TARGET_WEIGHTS[AccountType.BANK] == 25
        # The paper's page column itself sums to 99 (27+25+17+15+15).
        assert sum(PAGE_TARGET_WEIGHTS.values()) == 99

    def test_mail_is_top_target_in_both(self):
        assert max(EMAIL_TARGET_WEIGHTS, key=EMAIL_TARGET_WEIGHTS.get) is \
            AccountType.MAIL
        assert max(PAGE_TARGET_WEIGHTS, key=PAGE_TARGET_WEIGHTS.get) is \
            AccountType.MAIL


class TestSampling:
    def test_email_target_mix(self, rng):
        counts = Counter(sample_email_target(rng) for _ in range(5000))
        assert 0.30 < counts[AccountType.MAIL] / 5000 < 0.40
        assert 0.16 < counts[AccountType.BANK] / 5000 < 0.26

    def test_page_target_mix(self, rng):
        counts = Counter(sample_page_target(rng) for _ in range(5000))
        assert 0.22 < counts[AccountType.MAIL] / 5000 < 0.32

    def test_url_fraction(self, rng):
        templates = [sample_email_template(rng) for _ in range(3000)]
        with_url = sum(1 for t in templates if t.has_url) / 3000
        assert abs(with_url - URL_EMAIL_FRACTION) < 0.04


class TestTemplates:
    def test_one_per_target_and_style(self):
        combos = {(t.target, t.has_url) for t in EMAIL_TEMPLATES}
        assert len(combos) == len(EMAIL_TEMPLATES) == 10

    def test_reply_style_asks_for_credentials_in_body(self):
        for template in EMAIL_TEMPLATES:
            if not template.has_url:
                assert "password" in template.body.lower()

    def test_keywords_include_bait(self):
        for template in EMAIL_TEMPLATES:
            assert "verify" in template.keywords()
