"""Phishing campaigns: mass mailings of lures pointing at a page.

A campaign resolves, for every targeted address, the full lure outcome
(delivery → click → submission) and materializes its consequences:

* HTTP log events for Forms-hosted pages (Figures 3–6's raw data),
* captured :class:`~repro.world.accounts.Credential`s on the page (the
  hijacker crews' feedstock, Figure 7's clock-start),
* delivered lure copies + user phishing reports for provider users
  (Dataset 1's reported-phishing-email pool).

The ``outlier`` profile reproduces Figure 6's bottom panel: a ~15-hour
quiet period while the attackers test the page themselves, then a step
up to a large sustained diurnal wave that ends only at takedown.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional, Tuple

from repro.logs.events import MailReportedEvent
from repro.logs.store import LogStore
from repro.mail.reports import UserReportModel
from repro.net.email_addr import EmailAddress
from repro.phishing.forms import FormsHttpLog
from repro.phishing.lure import LureModel
from repro.phishing.pages import PageHosting, PhishingPage
from repro.phishing.templates import AccountType, PhishingEmailTemplate
from repro.util.clock import HOUR
from repro.util.ids import IdMinter
from repro.world.accounts import Account, Credential
from repro.world.messages import EmailMessage, Folder, MessageKind


#: The sender every delivered lure copy shows.
_LURE_SENDER = EmailAddress("security-alert", "important-notice.net")


class LureTarget(NamedTuple):
    """One address a campaign mails.

    ``account`` is set when the address belongs to the primary provider
    (so a submission yields a usable credential and the lure lands in a
    mailbox we simulate); external victims carry only filter strength
    and gullibility.  A plain tuple: a campaign builds one per pick and
    unpacks it once.
    """

    address: EmailAddress
    filter_block_probability: float
    gullibility: float
    account: Optional[Account] = None


@dataclass(frozen=True)
class CampaignProfile:
    """Timing shape of a campaign (standard decay vs. step outlier)."""

    name: str = "standard"
    quiet_period: int = 0
    mean_click_delay: int = 5 * HOUR
    #: Fraction of the attacker's own test GETs during the quiet period.
    test_views: int = 0


STANDARD_PROFILE = CampaignProfile()
OUTLIER_PROFILE = CampaignProfile(
    name="outlier", quiet_period=15 * HOUR, mean_click_delay=30 * HOUR, test_views=6,
)


@dataclass
class PhishingCampaign:
    """A planned mass mailing."""

    campaign_id: str
    template: PhishingEmailTemplate
    page: Optional[PhishingPage]       # None for reply-with-credentials lures
    launch_at: int
    #: Read once, by :meth:`CampaignRunner.run`.
    targets: Iterable[LureTarget]
    profile: CampaignProfile = STANDARD_PROFILE

    def __post_init__(self) -> None:
        if self.template.has_url and self.page is None:
            raise ValueError("URL-bearing lure requires a page")
        if not self.template.has_url and self.page is not None:
            raise ValueError("reply-style lure cannot carry a page")


@dataclass
class CampaignResult:
    """Aggregate outcome of one campaign run."""

    campaign_id: str
    mailed: int = 0
    delivered: int = 0
    visits: int = 0
    submissions: int = 0
    credentials: List[Credential] = field(default_factory=list)


@dataclass
class CampaignRunner:
    """Executes campaigns against the simulated world."""

    lure_model: LureModel
    forms_log: FormsHttpLog
    store: LogStore
    report_model: UserReportModel
    minter: IdMinter
    rng: random.Random

    def run(self, campaign: PhishingCampaign) -> CampaignResult:
        """Resolve every target and materialize the consequences.

        Traffic after the page's (predetermined) takedown is dropped —
        dead pages receive no visits and capture nothing.
        """
        result = CampaignResult(campaign_id=campaign.campaign_id)
        page = campaign.page
        wave_start = campaign.launch_at + campaign.profile.quiet_period
        forms = page is not None and page.hosting is PageHosting.FORMS

        if forms:
            self._record_attacker_tests(campaign, page)

        decide = self.lure_model.decide
        page_quality = page.quality if page is not None else None
        keywords = campaign.template.keywords()
        # Adjust the click-delay mean for this campaign's profile.
        original_delay = self.lure_model.mean_click_delay
        self.lure_model.mean_click_delay = campaign.profile.mean_click_delay
        try:
            for address, block_probability, gullibility, account in campaign.targets:
                result.mailed += 1
                outcome = decide(wave_start, block_probability, gullibility,
                                 page_quality)
                if not outcome.delivered:
                    continue
                result.delivered += 1
                if account is not None:
                    self._deliver_lure_copy(campaign, account, wave_start, keywords)
                if not outcome.clicked:
                    continue
                assert outcome.click_at is not None
                if page is not None:
                    if not page.is_up(outcome.click_at):
                        continue
                    result.visits += 1
                    if forms:
                        self.forms_log.record_view(page, outcome.click_at, outcome.referrer)
                if outcome.submitted:
                    assert outcome.submit_at is not None
                    if page is not None and not page.is_up(outcome.submit_at):
                        continue
                    credential = self._capture(campaign, address, account,
                                               outcome.submit_at)
                    result.submissions += 1
                    result.credentials.append(credential)
        finally:
            self.lure_model.mean_click_delay = original_delay
        return result

    def _record_attacker_tests(self, campaign: PhishingCampaign,
                               page: PhishingPage) -> None:
        """The outlier's quiet-period self-testing GETs."""
        for index in range(campaign.profile.test_views):
            span = max(1, campaign.profile.quiet_period)
            at = campaign.launch_at + (index * span) // max(1, campaign.profile.test_views)
            self.forms_log.record_view(page, at, referrer=None)

    def _capture(self, campaign: PhishingCampaign, address: EmailAddress,
                 account: Optional[Account], at: int) -> Credential:
        """A victim hands over credentials (possibly imperfect ones).

        Password accuracy mix is calibrated so hijackers end up with the
        correct password ~75% of the time *including* trivial-variant
        retries (Section 5.1): 68% exact, 12% trivial variant, 20% wrong
        at capture time; staleness (passwords already rotated by an
        earlier incident or a recovery) eats the rest down to ~75%.

        Only mail-credential phishes against provider users yield account
        passwords; bank/app-store/social submissions capture other
        secrets that never appear in the provider's login logs.
        """
        phishes_mail_credential = campaign.template.target is AccountType.MAIL
        if account is not None and phishes_mail_credential:
            roll = self.rng.random()
            true_password = account.password
            if roll < 0.68:
                password = true_password
            elif roll < 0.80:
                password = self.rng.choice((
                    true_password.capitalize(), true_password + "1",
                ))
            else:
                password = "hunter2"
        else:
            password = "external-secret"
        credential = Credential(
            address=address,
            password=password,
            captured_at=at,
            source_page_id=campaign.page.page_id if campaign.page else None,
        )
        if campaign.page is not None:
            campaign.page.capture(credential)
            if campaign.page.hosting is PageHosting.FORMS:
                self.forms_log.record_submission(
                    campaign.page, at, submitted_email=str(address),
                    referrer=None,
                )
        return credential

    def _deliver_lure_copy(self, campaign: PhishingCampaign, account: Account,
                           at: int, keywords: Tuple[str, ...]) -> None:
        """File the lure into a provider user's mailbox; maybe reported.

        Lure senders are external, so no MailSentEvent appears in the
        provider's logs — but recipient *reports* do (Dataset 1's pool).
        """
        copy = EmailMessage(
            message_id=self.minter.mint("msg"),
            sender=_LURE_SENDER,
            recipients=(account.address,),
            subject=campaign.template.subject,
            sent_at=at,
            body=campaign.template.body,
            kind=MessageKind.PHISHING,
            keywords=keywords,
            contains_url=campaign.template.has_url,
        )
        account.mailbox.deliver(copy, folder=Folder.INBOX)
        if self.report_model.maybe_report(copy, landed_in_inbox=True,
                                          sender_is_contact=False):
            due_at = at + self.report_model.report_delay_minutes()
            self.store.append(MailReportedEvent(
                timestamp=due_at,
                reporter_account_id=account.account_id,
                message_id=copy.message_id,
                sender_account_id=None,
                reported_as=self.report_model.report_label(copy),
            ))
