"""The mail service: sending, delivery, filtering, and report capture.

Every send flows through here so that the log store sees exactly one
``MailSentEvent`` per outgoing message and one ``MailReportedEvent`` per
user report — the two log families Sections 5.3's volume/recipient/report
deltas are computed from.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.logs.events import Actor, MailReportedEvent, MailSentEvent
from repro.logs.store import LogStore
from repro.mail.reports import UserReportModel
from repro.mail.spamfilter import SpamFilter, SpamVerdict
from repro.net.email_addr import EmailAddress
from repro.util.ids import IdMinter
from repro.world.messages import EmailMessage, Folder, MessageKind
from repro.world.population import Population


@dataclass
class SendResult:
    """What happened to one outgoing message."""

    message: EmailMessage
    delivered_inbox: int = 0
    delivered_spam: int = 0
    external_recipients: int = 0
    reports_scheduled: int = 0
    #: Provider accounts whose copy landed in the Inbox — the audience a
    #: contact-phishing blast can actually convert.
    inbox_accounts: List = field(default_factory=list)

    @property
    def delivered(self) -> int:
        return self.delivered_inbox + self.delivered_spam


@dataclass
class MailService:
    """Sending/delivery for the primary provider."""

    population: Population
    store: LogStore
    minter: IdMinter
    spam_filter: SpamFilter
    report_model: UserReportModel
    #: Originals of every message sent through the service, by id — the
    #: lookup curation steps use to review reported messages.
    message_index: dict = field(default_factory=dict)
    #: Behavioral analyzer hook (sees every send's fan-out, §8.2).
    behavioral: Optional[object] = None
    #: Abuse-response hook fed by flushed user reports.
    abuse: Optional[object] = None
    #: Min-heap of ``(due_at, seq, event)`` for reports that haven't
    #: "happened" yet; ``seq`` breaks due-time ties in insertion order
    #: (the same order the old stable sort produced).  ``flush_reports``
    #: pops only what is due instead of rebuilding the whole list.
    pending_reports: List[Tuple[int, int, MailReportedEvent]] = field(default_factory=list)
    _report_seq: int = 0

    def send(self, sender_account, recipients: Sequence[EmailAddress], subject: str,
             now: int, kind: MessageKind = MessageKind.ORGANIC,
             keywords: Tuple[str, ...] = (), actor: Actor = Actor.OWNER,
             reply_to: Optional[EmailAddress] = None, contains_url: bool = False,
             language: str = "en", file_to_sent: bool = True,
             body: str = "") -> SendResult:
        """Send one message from ``sender_account`` to ``recipients``.

        Honors a hijacker-set Reply-To on the account when the caller did
        not set one explicitly (the doppelganger diversion of §5.4).
        """
        if not recipients:
            raise ValueError("cannot send to zero recipients")
        recipients = tuple(recipients)
        message = EmailMessage(
            self.minter.mint("msg"), sender_account.address, recipients,
            subject, now, body, kind, keywords,
            reply_to or sender_account.hijacker_reply_to, contains_url,
            language,
        )
        self.message_index[message.message_id] = message
        if file_to_sent:
            sender_account.mailbox.file_sent(message)

        result = SendResult(message=message)
        lookup = self.population.lookup_address
        if len(recipients) == 1:
            distinct = (str(recipients[0]),)
        else:
            distinct = tuple(sorted({str(recipient) for recipient in recipients}))
        for recipient in recipients:
            recipient_account = lookup(recipient)
            if recipient_account is None:
                result.external_recipients += 1
                continue
            self._deliver_internal(message, sender_account, recipient_account, now, result)

        self.store.append(MailSentEvent(
            timestamp=now,
            account_id=sender_account.account_id,
            message_id=message.message_id,
            recipient_count=len(recipients),
            distinct_recipients=distinct,
            kind=kind.value,
            actor=actor,
        ))
        if self.behavioral is not None:
            self.behavioral.note_send(
                sender_account.account_id, len(recipients), now)
        sender_account.mark_activity(now)
        return result

    def _deliver_internal(self, message: EmailMessage, sender_account,
                          recipient_account, now: int, result: SendResult) -> None:
        sender_is_contact = self.population.contact_graph.are_connected(
            sender_account.position, recipient_account.position)
        verdict = self.spam_filter.classify(message, sender_is_contact)
        # Each recipient gets their own mailbox copy; placement differs
        # per recipient so copies are distinct message objects.
        copy = EmailMessage(
            self.minter.mint("msg"), message.sender, message.recipients,
            message.subject, message.sent_at, message.body, message.kind,
            message.keywords, message.reply_to, message.contains_url,
            message.language,
        )
        landed_in_inbox = verdict is SpamVerdict.INBOX
        recipient_account.mailbox.deliver(
            copy, Folder.INBOX if landed_in_inbox else Folder.SPAM)
        if landed_in_inbox:
            result.delivered_inbox += 1
            result.inbox_accounts.append(recipient_account)
        else:
            result.delivered_spam += 1

        if self.report_model.maybe_report(copy, landed_in_inbox, sender_is_contact):
            due_at = now + self.report_model.report_delay_minutes()
            self.pending_reports_push(due_at, MailReportedEvent(
                timestamp=due_at,
                reporter_account_id=recipient_account.account_id,
                message_id=message.message_id,
                sender_account_id=sender_account.account_id,
                reported_as=self.report_model.report_label(copy),
            ))
            result.reports_scheduled += 1

    def pending_reports_push(self, due_at: int,
                             event: MailReportedEvent) -> None:
        """Queue one future report; the day loop flushes it once due."""
        heapq.heappush(self.pending_reports, (due_at, self._report_seq, event))
        self._report_seq += 1

    def flush_reports(self, now: int) -> int:
        """Move due reports into the log store; returns how many landed.

        Pops the heap only while the head is due — O(due · log n), never
        a full scan of the pending list — in ``(due_at, insertion)``
        order, matching the old stable sort byte for byte.
        """
        obs.count("mail.flush.calls")
        flushed = 0
        pending = self.pending_reports
        while pending and pending[0][0] <= now:
            _, _, event = heapq.heappop(pending)
            obs.count("mail.flush.scanned")
            self.store.append(event)
            if self.abuse is not None:
                self.abuse.note_user_report(event.sender_account_id)
            flushed += 1
        return flushed
