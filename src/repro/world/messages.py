"""Email messages and mailbox folders.

Messages are immutable content plus mutable placement (folder, read flag),
because hijacker retention tactics *move* messages (filters diverting
replies to Trash/Spam, mass deletions) without altering their content.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from repro.net.email_addr import EmailAddress
from repro.util.compat import SLOT_KWARGS


class Folder(str, enum.Enum):
    """Gmail-like folders; Section 5.2 reports which ones hijackers open."""

    INBOX = "Inbox"
    SENT = "Sent Mail"
    DRAFTS = "Drafts"
    STARRED = "Starred"
    TRASH = "Trash"
    SPAM = "Spam"


class MessageKind(str, enum.Enum):
    """Ground-truth label of what a message *is*.

    The analysis pipeline never reads this directly — curation steps do
    (standing in for the paper's human reviewers), and the spam filter
    sees only message features.
    """

    ORGANIC = "organic"
    FINANCIAL = "financial"          # bank statements, wire confirmations
    CREDENTIAL = "credential"        # password resets, stored logins
    PERSONAL_MEDIA = "personal_media"
    PHISHING = "phishing"            # asks for credentials / links a page
    SCAM = "scam"                    # plea-for-money fraud
    BULK_SPAM = "bulk_spam"
    NOTIFICATION = "notification"    # provider security notifications


@dataclass(**SLOT_KWARGS)
class EmailMessage:
    """One email message.

    ``keywords`` is the searchable token set: the mailbox search engine
    matches hijacker queries ("wire transfer", "passport", …) against it,
    which is how the profiling phase discovers account value.

    Slotted (on 3.10+): worlds hold one instance per historical and
    simulated message, so per-instance ``__dict__`` overhead is the
    single largest memory line at 10⁵–10⁶ accounts.
    """

    message_id: str
    sender: EmailAddress
    recipients: Tuple[EmailAddress, ...]
    subject: str
    sent_at: int
    #: Body text; only abuse-relevant messages carry one (curation reads
    #: it), organic history keeps the empty default to bound memory.
    body: str = ""
    kind: MessageKind = MessageKind.ORGANIC
    keywords: Tuple[str, ...] = ()
    reply_to: Optional[EmailAddress] = None
    contains_url: bool = False
    language: str = "en"
    # Mutable placement state:
    folder: Folder = Folder.INBOX
    starred: bool = False
    read: bool = False
    deleted: bool = field(default=False)

    def __post_init__(self) -> None:
        if not self.recipients:
            raise ValueError(f"message {self.message_id} has no recipients")
        if self.sent_at < 0:
            raise ValueError(f"message {self.message_id} sent before the epoch")

    def matches(self, query: str) -> bool:
        """Case-insensitive match of a search query against this message
        (see :func:`query_predicate`)."""
        return query_predicate(query)(self)

    def _haystack(self) -> str:
        parts = (self.subject.lower(), self.body.lower())
        return " ".join(parts + tuple(k.lower() for k in self.keywords))

    @property
    def recipient_count(self) -> int:
        return len(self.recipients)

    def is_abusive(self) -> bool:
        """Ground truth: was this message sent with malicious intent?"""
        return self.kind in (MessageKind.PHISHING, MessageKind.SCAM, MessageKind.BULK_SPAM)


def query_predicate(query: str) -> Callable[[EmailMessage], bool]:
    """Parse a search query once into a per-message match test.

    Matching is case-insensitive and supports the two operator forms
    seen in Table 3's hijacker queries: ``is:starred`` and
    ``filename:(a or b)`` — the latter is treated as an any-of keyword
    match.  Anything else is a plain substring of the subject, body or
    keywords.
    """
    query = query.strip().lower()
    if query == "is:starred":
        return lambda message: message.starred
    if query.startswith("filename:"):
        body = query[len("filename:"):].strip("() ")
        terms = [term for term in (t.strip() for t in body.split(" or "))
                 if term]

        def any_term(message: EmailMessage) -> bool:
            haystack = message._haystack()
            return any(term in haystack for term in terms)

        return any_term
    return lambda message: query in message._haystack()
