"""A SafeBrowsing-style phishing-page detection pipeline.

The paper's Datasets 2–4 come from SafeBrowsing: pages detected "while
indexing the web", Forms taken down for phishing, and the pages the
authors injected decoy credentials into.  Our pipeline models the two
properties those datasets depend on:

* a **detection delay** between a page going live and the crawler
  flagging it (which bounds every page's harvesting window), and
* **takedown** — immediate for provider-hosted Forms, delayed for web
  pages (hosting abuse teams are slower than our own product).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from repro.phishing.pages import PageHosting, PhishingPage
from repro.phishing.templates import AccountType
from repro.util.clock import HOUR, WEEK


@dataclass(frozen=True)
class Detection:
    """One page detection verdict."""

    page_id: str
    detected_at: int
    taken_down_at: int
    hosting: PageHosting
    #: The account type the page imitates (Table 2's page column).
    target: AccountType

    def __post_init__(self) -> None:
        if self.taken_down_at < self.detected_at:
            raise ValueError("takedown cannot precede detection")


@dataclass
class SafeBrowsingPipeline:
    """Samples detection times and executes takedowns."""

    rng: random.Random
    #: Mean crawl-to-detection delay.  Calibrated so pages live long
    #: enough for Figure 6's multi-day traces but die within days.
    mean_detection_delay: int = 30 * HOUR
    #: Extra delay before a *web*-hosted page actually goes dark.
    mean_web_takedown_lag: int = 12 * HOUR
    detections: List[Detection] = field(default_factory=list)

    def process_page(self, page: PhishingPage,
                     evasion_factor: float = 1.0) -> Detection:
        """Decide when this page gets detected and taken down.

        Called at page creation; the sampled takedown is stamped onto the
        page so campaign traffic can be truncated at death.
        ``evasion_factor`` scales the detection delay for pages that
        evade the crawler longer (Figure 6's multi-day outlier survived
        several days of heavy traffic before takedown).
        """
        if evasion_factor <= 0:
            raise ValueError(f"evasion factor must be positive: {evasion_factor}")
        detected_at = page.created_at + max(
            30, int(self.rng.expovariate(
                1.0 / (self.mean_detection_delay * evasion_factor))),
        )
        if page.hosting is PageHosting.FORMS:
            taken_down_at = detected_at  # our own product: instant takedown
        else:
            lag = max(10, int(self.rng.expovariate(1.0 / self.mean_web_takedown_lag)))
            taken_down_at = detected_at + lag
        page.take_down(taken_down_at)
        detection = Detection(
            page_id=page.page_id,
            detected_at=detected_at,
            taken_down_at=taken_down_at,
            hosting=page.hosting,
            target=page.target,
        )
        self.detections.append(detection)
        return detection

    def detections_in_week(self, week_index: int) -> List[Detection]:
        """Detections whose verdict landed in the given week.

        Supports the Section 3 context stat: SafeBrowsing flagged
        16,000–25,000 phishing pages per week in 2012–2013 (our simulated
        web is smaller; the *weekly cadence* is what analyses consume).
        """
        if week_index < 0:
            raise ValueError(f"negative week index: {week_index}")
        start = week_index * WEEK
        end = start + WEEK
        return [d for d in self.detections if start <= d.detected_at < end]
