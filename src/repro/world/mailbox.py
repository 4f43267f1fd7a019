"""Mailboxes: folders, filters, deletion/restore, and snapshots.

The mailbox is the battleground of Section 5: hijackers search it to
assess value, read Starred/Drafts/Sent, install forwarding filters to act
in the shadow, and mass-delete content to slow the victim down.  The
remission phase (Section 6.4) restores it from a snapshot, so snapshotting
is a first-class operation here.

Scale notes: a mailbox can defer its pre-simulation history.  The
population builder hands it a *seeder* callback (which derives the
account's child seed when it runs) via :meth:`Mailbox.defer_seed`; the
first operation that reads messages — search, folder views, snapshots, the
correspondent list — or installs a filter runs the seeder before doing
its work, so history exists exactly when something first looks, and an
untouched account costs nothing.  Delivery is not a read: mail arriving
while history is pending is queued in O(1), and materialization replays
the queue through :meth:`Mailbox.deliver` after the history, so arrival
order, folders and correspondents come out as if history had been there
all along.  :meth:`Mailbox.get` serves a queued message without
materializing.  Because the seeder draws only from its own private RNG,
materialization order cannot perturb any other stream: a world is
bit-identical however many of its mailboxes get touched, and in
whatever order.  The correspondent map follows the same pattern: it does
not exist until the first contact read builds it from arrival order, and
delivery keeps it up after that.  Search keeps no index: it scans the
mailbox in arrival order (a run makes a few searches per searched
mailbox, over tens to hundreds of messages each).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.net.email_addr import EmailAddress
from repro.world.messages import EmailMessage, Folder, query_predicate


@dataclass(frozen=True)
class MailFilter:
    """A hijacker- or user-created mail filter.

    ``forward_to`` implements the forwarding rules of Section 5.4 (15% of
    2012 hijack cases); ``move_to`` implements reply-hiding (divert to
    Trash/Spam).  ``match_sender_domain`` scopes the filter.
    """

    filter_id: str
    created_at: int
    created_by_hijacker: bool
    match_sender_domain: Optional[str] = None
    forward_to: Optional[EmailAddress] = None
    move_to: Optional[Folder] = None

    def applies_to(self, message: EmailMessage) -> bool:
        if self.match_sender_domain is None:
            return True
        return message.sender.domain == self.match_sender_domain


@dataclass
class MailboxSnapshot:
    """Frozen mailbox state used by remission to undo hijacker changes."""

    taken_at: int
    message_states: Dict[str, Tuple[Folder, bool, bool]]  # id -> (folder, starred, deleted)
    filter_ids: Tuple[str, ...]


class Mailbox:
    """All messages and filters of one account."""

    __slots__ = (
        "owner", "_messages", "filters", "on_forward", "_seeder",
        "_correspondents",
    )

    def __init__(self, owner: EmailAddress):
        self.owner = owner
        #: message id -> message; insertion order is arrival order.
        self._messages: Dict[str, EmailMessage] = {}
        self.filters: List[MailFilter] = []
        #: Callback invoked when a filter forwards a message elsewhere.
        self.on_forward: Optional[Callable[[EmailMessage, EmailAddress], None]] = None
        #: Deferred history seeder; run (once) by the first message read.
        #: While it is pending, ``_messages`` holds only queued arrivals.
        self._seeder: Optional[Callable[["Mailbox"], None]] = None
        #: Distinct correspondents, built on the first contact read and
        #: maintained on delivery after that (content is append-only, so
        #: this never goes stale).
        self._correspondents: Optional[Dict[str, EmailAddress]] = None

    # -- lazy history ------------------------------------------------------

    def defer_seed(self, seeder: Callable[["Mailbox"], None]) -> None:
        """Register a history seeder to run on first message read."""
        if self._seeder is not None:
            raise ValueError(f"mailbox {self.owner} already has a pending seeder")
        self._seeder = seeder

    def _materialize(self) -> None:
        """Seed the history, then replay queued arrivals after it."""
        seeder, self._seeder = self._seeder, None
        obs.count("population.build.history_materialized")
        queued = list(self._messages.values())
        self._messages.clear()
        seeder(self)
        for message in queued:
            self.deliver(message, message.folder)

    # -- message lifecycle -------------------------------------------------

    def deliver(self, message: EmailMessage, folder: Folder = Folder.INBOX) -> None:
        """File an arriving message, applying filters in creation order.

        While history is pending (and so no filter exists — installing
        one materializes), the message is only queued; it is filed for
        real when :meth:`_materialize` replays it after the history.
        """
        if message.message_id in self._messages:
            raise ValueError(f"duplicate delivery of {message.message_id}")
        message.folder = folder
        if self._seeder is not None:
            obs.count("mailbox.deliver.queued")
            self._messages[message.message_id] = message
            return
        for mail_filter in self.filters:
            if not mail_filter.applies_to(message):
                continue
            if mail_filter.move_to is not None:
                message.folder = mail_filter.move_to
            if mail_filter.forward_to is not None and self.on_forward is not None:
                self.on_forward(message, mail_filter.forward_to)
        self._messages[message.message_id] = message
        if self._correspondents is not None:
            self._note_correspondents(message)

    def file_sent(self, message: EmailMessage) -> None:
        """Record an outgoing message in Sent Mail."""
        self.deliver(message, folder=Folder.SENT)

    def get(self, message_id: str) -> EmailMessage:
        """One message by id; a queued arrival needs no history."""
        if self._seeder is not None and message_id not in self._messages:
            self._materialize()
        return self._messages[message_id]

    def delete(self, message_id: str) -> None:
        """Soft-delete: recoverable by remission until purged."""
        if self._seeder is not None:
            self._materialize()
        self._messages[message_id].deleted = True

    def restore(self, message_id: str) -> None:
        if self._seeder is not None:
            self._materialize()
        self._messages[message_id].deleted = False

    def delete_all(self) -> int:
        """Mass deletion (the 2011-era retention tactic). Returns count."""
        if self._seeder is not None:
            self._materialize()
        count = 0
        for message in self._messages.values():
            if not message.deleted:
                message.deleted = True
                count += 1
        return count

    # -- views ---------------------------------------------------------------

    def messages(self, folder: Optional[Folder] = None,
                 include_deleted: bool = False) -> List[EmailMessage]:
        """Messages in arrival order, optionally restricted to a folder."""
        if self._seeder is not None:
            self._materialize()
        result = []
        for message in self._messages.values():
            if message.deleted and not include_deleted:
                continue
            if folder is not None and message.folder is not folder:
                continue
            result.append(message)
        return result

    def starred(self) -> List[EmailMessage]:
        return [m for m in self.messages() if m.starred]

    def search(self, query: str) -> List[EmailMessage]:
        """Full-mailbox search (the feature hijackers abuse, Section 5.2):
        the non-deleted messages matching ``query``, in arrival order."""
        obs.count("mailbox.search.calls")
        matches = query_predicate(query)
        return [m for m in self.messages() if matches(m)]

    def contact_addresses(self) -> List[EmailAddress]:
        """Distinct correspondents, the hijacker's next victim list.

        Sorted from the correspondent map, which one scan builds on the
        first contact read and delivery maintains after that (a scan per
        call at 10⁵ messages would dominate profiling).
        """
        correspondents = self._correspondent_map()
        return [correspondents[key] for key in sorted(correspondents)]

    def contact_count(self) -> int:
        """Number of distinct correspondents (no list materialization)."""
        return len(self._correspondent_map())

    def _correspondent_map(self) -> Dict[str, EmailAddress]:
        """Correspondent key -> address, built in arrival order on first use."""
        if self._seeder is not None:
            self._materialize()
        if self._correspondents is None:
            self._correspondents = {}
            for message in self._messages.values():
                self._note_correspondents(message)
        return self._correspondents

    def _note_correspondents(self, message: EmailMessage) -> None:
        correspondents = self._correspondents
        owner = self.owner
        for address in (message.sender,) + message.recipients:
            if address != owner:
                key = str(address)
                if key not in correspondents:
                    correspondents[key] = address

    def __len__(self) -> int:
        if self._seeder is not None:
            self._materialize()
        return sum(1 for m in self._messages.values() if not m.deleted)

    # -- filters ---------------------------------------------------------------

    def add_filter(self, mail_filter: MailFilter) -> None:
        """Install a filter; history materializes first, so filtering and
        forwarding never meet queued arrivals."""
        if self._seeder is not None:
            self._materialize()
        self.filters.append(mail_filter)

    def remove_hijacker_filters(self) -> int:
        """Drop filters created by a hijacker (remission). Returns count."""
        before = len(self.filters)
        self.filters = [f for f in self.filters if not f.created_by_hijacker]
        return before - len(self.filters)

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self, now: int) -> MailboxSnapshot:
        """Capture placement state for later remission."""
        if self._seeder is not None:
            self._materialize()
        return MailboxSnapshot(
            taken_at=now,
            message_states={
                message_id: (message.folder, message.starred, message.deleted)
                for message_id, message in self._messages.items()
            },
            filter_ids=tuple(f.filter_id for f in self.filters),
        )

    def restore_from(self, snapshot: MailboxSnapshot) -> int:
        """Revert placement of snapshotted messages; returns how many
        messages changed.  Messages that arrived after the snapshot are
        left alone (they may be legitimate mail)."""
        if self._seeder is not None:
            self._materialize()
        changed = 0
        for message_id, (folder, starred, deleted) in snapshot.message_states.items():
            message = self._messages.get(message_id)
            if message is None:
                continue
            if (message.folder, message.starred, message.deleted) != (folder, starred, deleted):
                message.folder = folder
                message.starred = starred
                message.deleted = deleted
                changed += 1
        snapshot_filters = set(snapshot.filter_ids)
        self.filters = [f for f in self.filters if f.filter_id in snapshot_filters]
        return changed
