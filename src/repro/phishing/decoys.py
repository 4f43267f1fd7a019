"""The decoy-credential experiment (Section 5.1, Figure 7).

The authors manually submitted 200 fake credentials into phishing pages
that asked for Google credentials — one credential per page — then
watched the login logs for the first access.  The injector reproduces
that protocol: it creates honey accounts at the provider, submits their
credentials to detected mail-credential pages, and later reads the login
log to compute the submission→first-access deltas that Figure 7 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.logs.events import LoginEvent
from repro.logs.store import LogStore
from repro.net.domains import PRIMARY_PROVIDER
from repro.net.email_addr import EmailAddress
from repro.phishing.pages import PhishingPage
from repro.phishing.templates import AccountType
from repro.util.ids import IdMinter
from repro.world.accounts import Account, Credential, RecoveryOptions
from repro.world.mailbox import Mailbox
from repro.world.population import Population
from repro.world.users import ActivityLevel, MailboxTraits, User


@dataclass(frozen=True)
class DecoyRecord:
    """One injected decoy and where it went."""

    account_id: str
    address: EmailAddress
    page_id: str
    submitted_at: int


@dataclass
class DecoyInjector:
    """Creates honey accounts and plants their credentials on pages."""

    population: Population
    minter: IdMinter
    records: List[DecoyRecord] = field(default_factory=list)

    def inject(self, page: PhishingPage, now: int) -> DecoyRecord:
        """Submit one fresh decoy credential into ``page``.

        Mirrors the paper's protocol: each credential goes to exactly one
        page, and only pages phishing for mail credentials are used.
        """
        if page.target is not AccountType.MAIL:
            raise ValueError(
                f"page {page.page_id} phishes {page.target.value} credentials; "
                "decoys are only planted on mail-credential pages"
            )
        account = self._create_honey_account(now)
        credential = Credential(
            address=account.address,
            password=account.password,
            captured_at=now,
            source_page_id=page.page_id,
            is_decoy=True,
        )
        page.capture(credential)
        record = DecoyRecord(
            account_id=account.account_id,
            address=account.address,
            page_id=page.page_id,
            submitted_at=now,
        )
        self.records.append(record)
        return record

    def _create_honey_account(self, now: int) -> Account:
        """A plausible-looking but researcher-controlled account."""
        serial = self.minter.mint("decoy")
        address = EmailAddress(f"decoy.{serial.split('-')[1]}", PRIMARY_PROVIDER)
        user = User(
            user_id=self.minter.mint("user"),
            name="Decoy Holder",
            country="US",
            language="en",
            activity=ActivityLevel.OCCASIONAL,
            gullibility=0.0,
            traits=MailboxTraits(),
        )
        account = Account(
            account_id=self.minter.mint("acct"),
            owner=user,
            address=address,
            password=f"decoy-pass-{serial}",
            recovery=RecoveryOptions(has_secret_question=False),
            mailbox=Mailbox(address),
            created_at=now,
        )
        self.population.add_account(account)
        return account

    def first_access_deltas(self, store: LogStore) -> Dict[str, Optional[int]]:
        """Per-decoy minutes from submission to first hijacker login.

        ``None`` marks decoys never accessed — the paper saw those too
        (suspended pages, abandoned dropboxes) and Figure 7's CDF simply
        plateaus below 100%.
        """
        deltas: Dict[str, Optional[int]] = {}
        for record in self.records:
            logins = store.query(
                LoginEvent,
                since=record.submitted_at,
                account_id=record.account_id,
            )
            deltas[record.account_id] = (
                logins[0].timestamp - record.submitted_at if logins else None
            )
        return deltas
