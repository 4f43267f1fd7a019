"""The victim lure model: who receives, clicks, and submits, and when.

This model produces the raw behavioral material of Figures 3–6:

* **Delivery** is gated by the receiving domain's spam-filter strength —
  the mechanism behind Figure 4's ``.edu`` dominance.
* **Click timing** decays exponentially from the mailing moment and is
  modulated by a diurnal curve ("clicks centered around the initial
  delivery time", Figure 6).
* **Referrers** are overwhelmingly blank — mail clients send none and
  webmail opens links in a new tab — with a small leaky-webmail tail
  (Figure 3).
* **Submission** given a visit depends on page execution quality times
  victim gullibility (Figure 5's 3%–45% spread around a ~13.7% mean).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.util.clock import HOUR, minute_of_day
from repro.util.distributions import diurnal_weight
from repro.util.rng import weighted_choice

#: Fraction of phishing-page visits arriving with *no* Referer header.
BLANK_REFERRER_RATE = 0.992

#: Leaky referrer sources and weights, ordered like Figure 3's bars.
_REFERRER_SOURCES = (
    ("http://webmail.smallhost.net/inbox", 1150),      # Webmail Generic
    ("https://mail.yahoo.example/launch", 1050),       # Yahoo
    ("http://portal.randomsite.org/mail", 500),        # Other
    ("https://mail.google.example/legacy/hm", 450),    # GMail (legacy HTML frontend)
    ("https://google.example/search", 200),            # Google
    ("https://outlook.example/owa", 150),              # Microsoft
    ("https://aol.com.example.aol.com/webmail", 100),  # AOL
    ("https://phishtank.example/check", 60),           # Phishtank
    ("https://facebook.example/l.php", 40),            # Facebook
    ("https://yandex.example/mail", 20),               # Yandex
)


@dataclass(frozen=True)
class LureOutcome:
    """What one targeted address did with one lure email."""

    delivered: bool
    clicked: bool = False
    click_at: Optional[int] = None
    referrer: Optional[str] = None
    submitted: bool = False
    submit_at: Optional[int] = None

    def __post_init__(self) -> None:
        if self.clicked and not self.delivered:
            raise ValueError("cannot click an undelivered lure")
        if self.submitted and not self.clicked:
            raise ValueError("cannot submit without visiting")


#: The two outcomes most lures end in (about 94% of them in a large
#: campaign world).  Frozen, so every such decision shares one object.
BLOCKED = LureOutcome(delivered=False)
IGNORED = LureOutcome(delivered=True)


@dataclass
class LureModel:
    """Behavioral parameters for phishing victims."""

    rng: random.Random
    #: P(open + click | delivered) scale; multiplied by gullibility.
    base_click_rate: float = 0.9
    #: Mean of the exponential click-delay (minutes).
    mean_click_delay: float = 5 * HOUR
    #: Submission odds = quality * (floor + slope * gullibility).
    submit_floor: float = 0.25
    submit_slope: float = 0.9

    def decide(self, launch_at: int, filter_block_probability: float,
               gullibility: float, page_quality: Optional[float]) -> LureOutcome:
        """Resolve one lure against one target.

        ``page_quality`` is None for reply-with-credentials lures (no
        page to visit); for those, "submit" means replying with creds and
        there is no click/referrer.
        """
        if self.rng.random() < filter_block_probability:
            return BLOCKED
        if self.rng.random() >= self.base_click_rate * gullibility:
            return IGNORED

        if page_quality is None:
            # Reply-style phish: delay then reply with credentials.
            reply_at = launch_at + self._diurnal_delay(launch_at)
            return LureOutcome(
                delivered=True, clicked=True, click_at=reply_at,
                submitted=True, submit_at=reply_at,
            )

        click_at = launch_at + self._diurnal_delay(launch_at)
        submit_probability = min(
            1.0, page_quality * (self.submit_floor + self.submit_slope * gullibility),
        )
        if self.rng.random() < submit_probability:
            submit_at = click_at + self.rng.randrange(1, 5)
            return LureOutcome(
                delivered=True, clicked=True, click_at=click_at,
                referrer=self.sample_referrer(),
                submitted=True, submit_at=submit_at,
            )
        return LureOutcome(
            delivered=True, clicked=True, click_at=click_at,
            referrer=self.sample_referrer(),
        )

    def sample_referrer(self) -> Optional[str]:
        """A Referer header value for one phishing-page visit."""
        if self.rng.random() < BLANK_REFERRER_RATE:
            return None
        urls = tuple(url for url, _ in _REFERRER_SOURCES)
        weights = tuple(weight for _, weight in _REFERRER_SOURCES)
        return weighted_choice(self.rng, urls, weights)

    def _diurnal_delay(self, launch_at: int) -> int:
        """An exponential delay thinned by the diurnal activity curve.

        Rejection sampling: propose an exponential delay, accept with the
        diurnal weight at the proposed wall-clock moment.  Bounded tries
        keep the model total."""
        for _ in range(50):
            delay = max(1, int(self.rng.expovariate(1.0 / self.mean_click_delay)))
            when = launch_at + delay
            if self.rng.random() < diurnal_weight(minute_of_day(when)):
                return delay
        return max(1, int(self.rng.expovariate(1.0 / self.mean_click_delay)))
