import dataclasses

import pytest

from repro.net.http import ReferrerClass, classify_referrer
from repro.phishing.lure import (
    BLANK_REFERRER_RATE,
    BLOCKED,
    IGNORED,
    LureModel,
    LureOutcome,
)
from repro.util.clock import HOUR


@pytest.fixture
def model(rng):
    return LureModel(rng)


class TestOutcomeInvariants:
    def test_click_requires_delivery(self):
        with pytest.raises(ValueError):
            LureOutcome(delivered=False, clicked=True)

    def test_submit_requires_click(self):
        with pytest.raises(ValueError):
            LureOutcome(delivered=True, clicked=False, submitted=True)


class TestSharedOutcomes:
    def test_blocked_and_ignored_are_the_shared_constants(self, model):
        assert model.decide(0, 1.0, 0.9, 0.9) is BLOCKED
        assert model.decide(0, 0.0, 0.0, 0.9) is IGNORED
        assert BLOCKED == LureOutcome(delivered=False)
        assert IGNORED == LureOutcome(delivered=True)

    def test_shared_outcomes_stay_frozen(self):
        for outcome in (BLOCKED, IGNORED):
            with pytest.raises(dataclasses.FrozenInstanceError):
                outcome.clicked = True

    def test_clicked_outcomes_are_fresh(self, model):
        clicked = [model.decide(0, 0.0, 1.0, 0.9) for _ in range(20)]
        clicked = [outcome for outcome in clicked if outcome.clicked]
        assert len(clicked) >= 10
        assert len({id(outcome) for outcome in clicked}) == len(clicked)


class TestDecide:
    def test_filter_blocks(self, model):
        outcomes = [model.decide(0, 1.0, 0.9, 0.9) for _ in range(50)]
        assert not any(o.delivered for o in outcomes)

    def test_gullible_victims_click_more(self, model):
        naive = sum(model.decide(0, 0.0, 0.9, 0.9).clicked
                    for _ in range(600))
        wary = sum(model.decide(0, 0.0, 0.05, 0.9).clicked
                   for _ in range(600))
        assert naive > wary * 3

    def test_click_time_after_launch(self, model):
        for _ in range(100):
            outcome = model.decide(1000, 0.0, 0.9, 0.9)
            if outcome.clicked:
                assert outcome.click_at > 1000

    def test_submit_follows_click(self, model):
        for _ in range(200):
            outcome = model.decide(0, 0.0, 0.9, 0.95)
            if outcome.submitted:
                assert outcome.submit_at >= outcome.click_at

    def test_page_quality_gates_submission(self, model):
        def submit_rate(quality):
            outcomes = [model.decide(0, 0.0, 0.5, quality)
                        for _ in range(800)]
            clicked = [o for o in outcomes if o.clicked]
            return sum(o.submitted for o in clicked) / max(1, len(clicked))

        assert submit_rate(0.95) > submit_rate(0.10) * 3

    def test_reply_style_submits_without_referrer(self, model):
        outcomes = [model.decide(0, 0.0, 0.9, None) for _ in range(300)]
        submitted = [o for o in outcomes if o.submitted]
        assert submitted
        assert all(o.referrer is None for o in submitted)


class TestReferrers:
    def test_mostly_blank(self, rng):
        model = LureModel(rng)
        referrers = [model.sample_referrer() for _ in range(5000)]
        blank = sum(1 for r in referrers if r is None) / 5000
        assert abs(blank - BLANK_REFERRER_RATE) < 0.01

    def test_nonblank_classified_as_webmailish(self, rng):
        model = LureModel(rng)
        nonblank = [r for r in (model.sample_referrer() for _ in range(20000))
                    if r is not None]
        assert nonblank
        classes = {classify_referrer(r) for r in nonblank}
        assert ReferrerClass.BLANK not in classes
        assert ReferrerClass.WEBMAIL_GENERIC in classes


class TestTiming:
    def test_delays_have_hour_scale(self, rng):
        model = LureModel(rng)
        delays = []
        for _ in range(400):
            outcome = model.decide(0, 0.0, 0.9, 0.9)
            if outcome.clicked:
                delays.append(outcome.click_at)
        average = sum(delays) / len(delays)
        assert HOUR < average < 24 * HOUR
