import pytest

from repro.phishing.pages import PageHosting, PhishingPage
from repro.phishing.safebrowsing import Detection, SafeBrowsingPipeline
from repro.phishing.templates import AccountType
from repro.util.clock import DAY, WEEK


def make_page(hosting=PageHosting.WEB, created_at=0):
    return PhishingPage(page_id="page-000000", target=AccountType.MAIL,
                        hosting=hosting, created_at=created_at, quality=0.5)


class TestDetection:
    def test_detection_after_creation(self, rng):
        pipeline = SafeBrowsingPipeline(rng)
        for index in range(50):
            page = make_page(created_at=index * 100)
            detection = pipeline.process_page(page)
            assert detection.detected_at > page.created_at

    def test_forms_takedown_instant(self, rng):
        pipeline = SafeBrowsingPipeline(rng)
        detection = pipeline.process_page(make_page(PageHosting.FORMS))
        assert detection.taken_down_at == detection.detected_at

    def test_web_takedown_lags(self, rng):
        pipeline = SafeBrowsingPipeline(rng)
        detection = pipeline.process_page(make_page(PageHosting.WEB))
        assert detection.taken_down_at > detection.detected_at

    def test_page_stamped(self, rng):
        pipeline = SafeBrowsingPipeline(rng)
        page = make_page()
        detection = pipeline.process_page(page)
        assert page.taken_down_at == detection.taken_down_at
        assert detection.target is page.target

    def test_detection_validates_ordering(self):
        with pytest.raises(ValueError):
            Detection(page_id="p", detected_at=10, taken_down_at=5,
                      hosting=PageHosting.WEB, target=AccountType.MAIL)

    def test_mean_lifetime_order_of_days(self, rng):
        pipeline = SafeBrowsingPipeline(rng)
        lifetimes = []
        for _ in range(300):
            page = make_page()
            pipeline.process_page(page)
            lifetimes.append(page.taken_down_at - page.created_at)
        average = sum(lifetimes) / len(lifetimes)
        assert 0.5 * DAY < average < 4 * DAY


class TestAggregation:
    def test_weekly_buckets(self, rng):
        pipeline = SafeBrowsingPipeline(rng)
        for index in range(40):
            pipeline.process_page(make_page(created_at=index * 1000))
        total = sum(len(pipeline.detections_in_week(week))
                    for week in range(6))
        in_range = [d for d in pipeline.detections
                    if d.detected_at < 6 * WEEK]
        assert total == len(in_range)

    def test_negative_week_rejected(self, rng):
        with pytest.raises(ValueError):
            SafeBrowsingPipeline(rng).detections_in_week(-1)
