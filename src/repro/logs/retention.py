"""Privacy-driven log retention.

The paper notes that "Google sanitizes or entirely erases many
authentication-related logs within a short time window", which is why
several datasets span only weeks despite the three-year study.  This
module models that constraint: each event family gets a retention window,
and enforcing the policy erases (or would erase) anything older.

The measurement implication — reproduced here — is that analyses must be
run against *recent* windows; an analysis asking for data older than the
family's window finds it erased, exactly the wall the authors hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.logs.events import (
    ChallengeEvent,
    FolderOpenEvent,
    HttpRequestEvent,
    LoginEvent,
    SearchEvent,
)
from repro.logs.store import LogStore
from repro.util.clock import DAY


#: Default windows (minutes).  Authentication and activity logs are short-
#: lived; abuse verdicts and recovery claims are kept long-term.
DEFAULT_WINDOWS: Dict[type, int] = {
    LoginEvent: 42 * DAY,
    ChallengeEvent: 42 * DAY,
    SearchEvent: 28 * DAY,
    FolderOpenEvent: 28 * DAY,
    HttpRequestEvent: 90 * DAY,
}


@dataclass
class RetentionPolicy:
    """Retention windows per event family; families absent from
    ``windows`` are kept forever."""

    windows: Dict[type, int] = field(default_factory=lambda: dict(DEFAULT_WINDOWS))

    def window_for(self, event_type: type) -> int:
        """Retention window in minutes, or a huge sentinel if unlimited."""
        return self.windows.get(event_type, 10**12)

    def horizon(self, event_type: type, now: int) -> int:
        """Earliest timestamp still retained for ``event_type`` at ``now``."""
        return max(0, now - self.window_for(event_type))

    def enforce(self, store: LogStore, now: int) -> Dict[str, int]:
        """Erase expired events from ``store``; returns per-family counts."""
        erased: Dict[str, int] = {}
        for event_type, _ in sorted(self.windows.items(), key=lambda kv: kv[0].__name__):
            horizon = self.horizon(event_type, now)
            count = store.remove_where(
                event_type, lambda event, h=horizon: event.timestamp < h,
            )
            if count:
                erased[event_type.__name__] = count
        return erased
