import pytest

from repro.util.clock import (
    DAY,
    HOUR,
    MINUTE,
    WEEK,
    SimClock,
    days,
    format_duration,
    format_time,
    hour_of_day,
    hours,
    minute_of_day,
    minutes,
    weekday_of,
)


def is_weekend(t: int) -> bool:
    """True when ``t`` falls on a Saturday or Sunday."""
    return weekday_of(t) >= 5


class TestUnits:
    def test_hierarchy(self):
        assert HOUR == 60 * MINUTE
        assert DAY == 24 * HOUR
        assert WEEK == 7 * DAY

    def test_converters(self):
        assert hours(1.5) == 90
        assert days(2) == 2 * DAY
        assert minutes(2.4) == 2


class TestCalendar:
    def test_epoch_is_monday_midnight(self):
        assert weekday_of(0) == 0
        assert hour_of_day(0) == 0

    def test_weekday_progression(self):
        assert weekday_of(DAY) == 1
        assert weekday_of(6 * DAY) == 6
        assert weekday_of(7 * DAY) == 0

    def test_weekend(self):
        assert not is_weekend(4 * DAY)  # Friday
        assert is_weekend(5 * DAY)      # Saturday
        assert is_weekend(6 * DAY + 23 * HOUR)
        assert not is_weekend(7 * DAY)  # next Monday

    def test_minute_of_day_wraps(self):
        assert minute_of_day(DAY + 5) == 5

    def test_format_time(self):
        assert format_time(0) == "day0 Mon 00:00"
        assert format_time(DAY + 13 * HOUR + 5) == "day1 Tue 13:05"

    def test_format_duration(self):
        assert format_duration(5) == "5m"
        assert format_duration(HOUR) == "1h"
        assert format_duration(HOUR + 5) == "1h05m"
        assert format_duration(DAY) == "1d"
        assert format_duration(DAY + HOUR) == "1d1h"
        assert format_duration(-30) == "-30m"


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        clock.advance_to(10)
        clock.advance_to(15)
        assert clock.now == 15

    def test_rewind_rejected(self):
        clock = SimClock(now=10)
        with pytest.raises(ValueError):
            clock.advance_to(5)

    def test_watchers_fire_in_order(self):
        clock = SimClock()
        fired = []
        clock.watch(5, lambda now: fired.append(("a", now)))
        clock.watch(3, lambda now: fired.append(("b", now)))
        clock.advance_to(10)
        assert fired == [("b", 10), ("a", 10)]

    def test_watcher_in_past_rejected(self):
        clock = SimClock(now=10)
        with pytest.raises(ValueError):
            clock.watch(5, lambda now: None)

    def test_watchers_fire_once(self):
        clock = SimClock()
        fired = []
        clock.watch(1, lambda now: fired.append(now))
        clock.advance_to(2)
        clock.advance_to(3)
        assert fired == [2]

    def test_str(self):
        assert str(SimClock(now=HOUR)) == "day0 Mon 01:00"
