"""HTTP logging for Forms-hosted phishing pages.

Some phishing pages are (ab)hosted on the provider's own Forms product —
the paper's Dataset 3 is the HTTP logs of 100 such Google Forms.  Because
the provider hosts them, every GET (page view) and POST (form submission)
lands in the provider's log store, which is what makes Figures 3–6
measurable at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.logs.events import HttpRequestEvent
from repro.logs.store import LogStore
from repro.net.email_addr import EmailAddress
from repro.net.http import HttpRequest, Method
from repro.net.ip import IpAddress, IpAllocator
from repro.phishing.pages import PageHosting, PhishingPage


@dataclass
class FormsHttpLog:
    """Writes phishing-form HTTP traffic into the provider's log store."""

    store: LogStore
    allocator: IpAllocator
    rng: random.Random

    def record_view(self, page: PhishingPage, at: int,
                    referrer: Optional[str] = None,
                    client_ip: Optional[IpAddress] = None) -> HttpRequestEvent:
        """Log a GET against a Forms page."""
        return self._record(page, at, Method.GET, referrer, None, client_ip)

    def record_submission(self, page: PhishingPage, at: int,
                          submitted_email: EmailAddress,
                          referrer: Optional[str] = None,
                          client_ip: Optional[IpAddress] = None) -> HttpRequestEvent:
        """Log a POST carrying a filled credential form."""
        return self._record(page, at, Method.POST, referrer, submitted_email, client_ip)

    def _record(self, page: PhishingPage, at: int, method: Method,
                referrer: Optional[str],
                submitted_email: Optional[EmailAddress],
                client_ip: Optional[IpAddress]) -> HttpRequestEvent:
        if page.hosting is not PageHosting.FORMS:
            raise ValueError(
                f"page {page.page_id} is hosted on {page.hosting.value}; "
                "only Forms traffic reaches the provider's HTTP logs"
            )
        if client_ip is None:
            client_ip = self._victim_ip()
        event = HttpRequestEvent(
            timestamp=at,
            request=HttpRequest(
                timestamp=at,
                method=method,
                page_id=page.page_id,
                client_ip=client_ip,
                referrer=referrer,
                submitted_email=submitted_email,
            ),
        )
        self.store.append(event)
        return event

    def _victim_ip(self) -> IpAddress:
        """An address in some victim-side country (uniform over a few)."""
        country = self.rng.choice(("US", "GB", "FR", "BR", "IN", "CA", "ES", "DE"))
        return self.allocator.allocate(country)
