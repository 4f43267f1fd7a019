"""The core principles of scam construction.

Section 5.3 formalizes five principles that every observed scam scheme
shares.  We encode them as a taxonomy, give each a set of textual markers,
and provide a detector used both by tests (every generated scam must
exhibit all five) and by the scam classifier.
"""

from __future__ import annotations

import enum
import re
from typing import Dict, List, Pattern


class Principle(enum.Enum):
    """The paper's five scam-design principles (Section 5.3)."""

    CREDIBLE_STORY = "credible_story"
    SYMPATHY_APPEAL = "sympathy_appeal"
    LIMITED_RISK = "limited_risk"
    DISCOURAGE_VERIFICATION = "discourage_verification"
    UNTRACEABLE_TRANSFER = "untraceable_transfer"

    @property
    def description(self) -> str:
        return _DESCRIPTIONS[self]


_DESCRIPTIONS = {
    Principle.CREDIBLE_STORY:
        "A story with credible details to limit the victim's suspicion.",
    Principle.SYMPATHY_APPEAL:
        "Words or phrases that evoke sympathy and aim to persuade.",
    Principle.LIMITED_RISK:
        "An appearance of limited financial risk: requests framed as a "
        "loan with concrete promises of speedy repayment.",
    Principle.DISCOURAGE_VERIFICATION:
        "Language that discourages contacting the victim via another "
        "channel, typically claiming the phone was stolen.",
    Principle.UNTRACEABLE_TRANSFER:
        "An untraceable, fast, hard-to-revoke yet safe-looking transfer "
        "mechanism (Western Union / MoneyGram by name).",
}

#: Lower-cased textual markers signalling each principle.
_MARKERS = {
    Principle.CREDIBLE_STORY: frozenset((
        "last night", "on our way back", "short vacation", "hotel bill",
        "flight ticket", "in an alley", "kidney", "hospital bill",
        "customs", "embassy",
    )),
    Principle.SYMPATHY_APPEAL: frozenset((
        "sorry to bother", "dreadful experience", "knife", "ill", "tears",
        "desperate", "suffering", "quite honestly", "beyond a dreadful",
        "save her life",
    )),
    Principle.LIMITED_RISK: frozenset((
        "payback as soon as", "will pay back", "repay", "temporary",
        "emergency loan", "refund you", "as soon as i get back",
    )),
    Principle.DISCOURAGE_VERIFICATION: frozenset((
        "phone was stolen", "cell phone", "can't be reached", "no phone",
        "only way to reach me", "email is the only way",
    )),
    Principle.UNTRACEABLE_TRANSFER: frozenset((
        "western union", "moneygram", "wire the money", "money transfer",
        "pick it up", "transfer control number",
    )),
}


_PATTERNS: Dict[Principle, Pattern] = {
    # Word-boundary matching: "ill" must not fire inside "still".
    principle: re.compile(
        "|".join(r"\b" + re.escape(marker) + r"\b" for marker in sorted(markers))
    )
    for principle, markers in _MARKERS.items()
}


def principles_present(text: str) -> List[Principle]:
    """Which principles the text exhibits, in enum order."""
    haystack = text.lower()
    return [
        principle for principle in Principle
        if _PATTERNS[principle].search(haystack)
    ]
