"""Phone-based attribution — Figure 12.

In 2012 hijackers briefly enrolled their own phones as second factors to
lock victims out; the ~300 numbers they used map to countries through
E.164 calling codes.  The phones come from the settings-change log
(the ``hijacker_phone_pool`` dataset).
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.logs.mapreduce import count_by
from repro.net.phones import PhoneNumber


def hijacker_phone_countries(phones: Iterable[PhoneNumber]) -> Dict[str, int]:
    """Country → count over hijacker-enrolled two-factor phone numbers.

    Numbers whose calling code we cannot attribute are aggregated under
    ``"??"`` rather than dropped — the paper's chart has a small
    unattributed remainder too.
    """
    return count_by(phones, key_of=lambda phone: phone.country() or "??")
