import pytest

from repro.hijacker.schedule import WorkSchedule
from repro.util.clock import DAY, HOUR, WEEK


class TestValidation:
    def test_rejects_bad_offset(self):
        with pytest.raises(ValueError):
            WorkSchedule(utc_offset_hours=20)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            WorkSchedule(start_hour=18, end_hour=9)

    def test_rejects_lunch_outside_window(self):
        with pytest.raises(ValueError):
            WorkSchedule(start_hour=9, end_hour=18, lunch_hour=20)


class TestIsWorking:
    def test_office_hours_utc(self):
        schedule = WorkSchedule()
        assert schedule.is_working(10 * HOUR)       # Mon 10:00
        assert not schedule.is_working(8 * HOUR)    # before start
        assert not schedule.is_working(18 * HOUR)   # after end

    def test_synchronized_lunch_break(self):
        schedule = WorkSchedule(lunch_hour=13)
        assert not schedule.is_working(13 * HOUR + 30)
        assert schedule.is_working(14 * HOUR)

    def test_weekends_off(self):
        schedule = WorkSchedule()
        saturday_morning = 5 * DAY + 10 * HOUR
        assert not schedule.is_working(saturday_morning)

    def test_weekend_crew(self):
        schedule = WorkSchedule(works_weekends=True)
        assert schedule.is_working(5 * DAY + 10 * HOUR)

    def test_timezone_shift(self):
        # UTC+8 crew working 9:00–18:00 local is working 01:00–10:00 UTC.
        schedule = WorkSchedule(utc_offset_hours=8)
        assert schedule.is_working(2 * HOUR)
        assert not schedule.is_working(12 * HOUR)


class TestNextWorkingMinute:
    def test_identity_when_working(self):
        schedule = WorkSchedule()
        t = 10 * HOUR
        assert schedule.next_working_minute(t) == t

    def test_night_defers_to_morning(self):
        schedule = WorkSchedule()
        assert schedule.next_working_minute(22 * HOUR) == DAY + 9 * HOUR

    def test_lunch_defers_to_after_lunch(self):
        schedule = WorkSchedule(lunch_hour=13)
        assert schedule.next_working_minute(13 * HOUR + 10) == 14 * HOUR

    def test_weekend_defers_to_monday(self):
        schedule = WorkSchedule()
        saturday = 5 * DAY + 10 * HOUR
        assert schedule.next_working_minute(saturday) == WEEK + 9 * HOUR

    def test_always_lands_on_working_minute(self):
        schedule = WorkSchedule(utc_offset_hours=8)
        for t in range(0, 2 * WEEK, 97):
            assert schedule.is_working(schedule.next_working_minute(t))

    def test_result_never_in_past(self):
        schedule = WorkSchedule(utc_offset_hours=-4)
        for t in range(0, WEEK, 131):
            assert schedule.next_working_minute(t) >= t
