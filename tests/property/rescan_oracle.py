"""The per-day rescan loop: the specification the event wheel obeys.

Every day runs every phase in :class:`~repro.core.scheduler.EventKind`
order and probes the *whole* watchlist, so a quiet day still pays
O(world state).  That brute force is what makes it a trustworthy
oracle: the wheel must reproduce its results bit for bit.  Production
never runs it; the wheel's scheduling hooks still fire here, but
nothing drains the wheel, so they cannot change the world.
"""

from __future__ import annotations

from repro.core.simulation import Simulation
from repro.util.clock import DAY


class RescanSimulation(Simulation):
    """:class:`Simulation` with the day loop replaced by daily rescans."""

    def _run_days(self) -> None:
        for day in range(self.config.horizon_days):
            day_end = (day + 1) * DAY
            self._create_standalone_pages(day)
            for crew, is_outlier in self._campaign_schedule.get(day, ()):
                self._launch_campaign(crew, day, is_outlier)
            self._process_incidents_until(day_end)
            self.mail.flush_reports(day_end)
            self._sweep_watchlist(day_end)
            self.clock.advance_to(day_end)

    def _sweep_watchlist(self, now: int) -> None:
        """Probe every watched account, every day."""
        before = set(self.abuse.suspended_accounts)
        self.abuse.sweep([self.population.accounts[account_id]
                          for account_id in sorted(self._watch_members)], now)
        for account_id in self.abuse.suspended_accounts:
            if account_id not in before and account_id not in self._cases_opened:
                self._open_sweep_case(account_id, now)
