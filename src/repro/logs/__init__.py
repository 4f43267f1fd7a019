"""Log infrastructure: typed event records, the append-only store the
measurement pipeline mines, privacy-driven retention, and the
count-per-key aggregation (:func:`repro.logs.mapreduce.count_by`).

Analyses read the store only through the registered datasets of
:mod:`repro.analysis.datasets`.
"""

from repro.logs.events import (
    Actor,
    ChallengeEvent,
    Event,
    FolderOpenEvent,
    HijackFlagEvent,
    HttpRequestEvent,
    LoginEvent,
    MailReportedEvent,
    MailSentEvent,
    NotificationEvent,
    RecoveryClaimEvent,
    RemissionEvent,
    SearchEvent,
    SettingsChangeEvent,
    SuspensionEvent,
)
from repro.logs.store import LogStore
from repro.logs.retention import RetentionPolicy

__all__ = [
    "Actor",
    "Event",
    "LoginEvent",
    "ChallengeEvent",
    "SearchEvent",
    "FolderOpenEvent",
    "MailSentEvent",
    "MailReportedEvent",
    "SettingsChangeEvent",
    "SuspensionEvent",
    "NotificationEvent",
    "RecoveryClaimEvent",
    "RemissionEvent",
    "HijackFlagEvent",
    "HttpRequestEvent",
    "LogStore",
    "RetentionPolicy",
]
