"""Differential: Figures 3–6 from ``forms_page_tallies`` vs from D3 itself.

Figures 3–6 read the one-pass per-page tally of the Forms logs
(``forms_page_tallies``).  The ``reference_figure*`` functions below
are the loops they replaced, which walked D3 (``forms_http_logs``)
once per figure; the only edit is Figure 4's, which parses
``str(email)`` now that a submitted address is an ``EmailAddress``.
Each world must give equal figures both ways, with the same key order
in Figures 3 and 4's count maps.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro import Simulation
from repro.analysis import figure3, figure4, figure5, figure6
from repro.analysis.figure3 import Figure3
from repro.analysis.figure4 import Figure4
from repro.analysis.figure5 import MIN_VIEWS, Figure5
from repro.analysis.figure6 import Figure6, _outlier_score
from repro.analysis.registry import ArtifactContext
from repro.core.scenarios import phishing_traffic_study, smoke_scenario
from repro.logs.mapreduce import count_by
from repro.net.email_addr import EmailAddress
from repro.net.http import Method, ReferrerClass, classify_referrer
from repro.util.clock import HOUR


def reference_figure3(logs) -> Figure3:
    views = [
        event.request
        for events in logs.values()
        for event in events
        if event.request.method is Method.GET
    ]
    classes = [classify_referrer(request.referrer) for request in views]
    blank = sum(1 for c in classes if c is ReferrerClass.BLANK)
    nonblank = count_by(
        [c.value for c in classes if c is not ReferrerClass.BLANK],
        key_of=lambda value: value,
    )
    return Figure3(total_views=len(views), blank_views=blank,
                   nonblank_counts=nonblank)


def reference_figure4(logs) -> Figure4:
    tlds = []
    for events in logs.values():
        for event in events:
            email = event.request.submitted_email
            if email is None:
                continue
            tlds.append(EmailAddress.parse(str(email)).tld)
    return Figure4(
        total_submissions=len(tlds),
        tld_counts=count_by(tlds, key_of=lambda tld: tld),
    )


def reference_figure5(logs) -> Figure5:
    rates: List[Tuple[str, float, int, int]] = []
    for page_id, events in sorted(logs.items()):
        gets = sum(1 for e in events if e.request.method is Method.GET)
        posts = sum(1 for e in events if e.request.method is Method.POST)
        if gets >= MIN_VIEWS:
            rates.append((page_id, posts / gets, gets, posts))
    rates.sort(key=lambda item: -item[1])
    return Figure5(rates=rates)


def reference_hourly_series(events, horizon_hours: int = 96) -> List[float]:
    posts = [e.timestamp for e in events if e.request.method is Method.POST]
    if not events:
        return []
    start = min(e.timestamp for e in events)
    series = [0.0] * horizon_hours
    for timestamp in posts:
        index = (timestamp - start) // HOUR
        if 0 <= index < horizon_hours:
            series[int(index)] += 1.0
    return series


def reference_figure6(logs) -> Figure6:
    all_series: Dict[str, List[float]] = {
        page_id: reference_hourly_series(events)
        for page_id, events in logs.items() if events
    }
    if not all_series:
        return Figure6(average_series=[], outlier=None)
    length = max(len(series) for series in all_series.values())
    average = [0.0] * length
    for series in all_series.values():
        for index, value in enumerate(series):
            average[index] += value
    count = len(all_series)
    average = [value / count for value in average]

    best_page, best_score = None, 0.0
    for page_id, series in sorted(all_series.items()):
        score = _outlier_score(series)
        if score > best_score:
            best_page, best_score = page_id, score
    outlier = (best_page, all_series[best_page]) if best_page else None
    return Figure6(average_series=average, outlier=outlier)


#: World name -> (config, the cases its D3 must contain).
WORLDS = {
    "smoke/7": (lambda: smoke_scenario(seed=7), set()),
    "smoke/11": (lambda: smoke_scenario(seed=11), set()),
    "traffic/7": (lambda: phishing_traffic_study(seed=7),
                  {"nonblank_referrer", "thin_page"}),
    # No phishing at all.
    "quiet/3": (lambda: smoke_scenario(seed=3).with_overrides(
        campaigns_per_week=0, standalone_pages_per_week=0, n_decoys=0,
        horizon_days=7), {"no_pages"}),
}


@pytest.fixture(scope="module", params=sorted(WORLDS))
def world(request):
    config, cases = WORLDS[request.param]
    return request.param, cases, Simulation(config()).run()


def test_figures_match_the_d3_loops(world):
    name, _, result = world
    logs = ArtifactContext(result).dataset("forms_http_logs")
    ctx = ArtifactContext(result)
    fig3, ref3 = figure3.compute(ctx), reference_figure3(logs)
    fig4, ref4 = figure4.compute(ctx), reference_figure4(logs)
    assert fig3 == ref3, name
    assert list(fig3.nonblank_counts) == list(ref3.nonblank_counts), name
    assert fig4 == ref4, name
    assert list(fig4.tld_counts) == list(ref4.tld_counts), name
    assert figure5.compute(ctx) == reference_figure5(logs), name
    assert figure6.compute(ctx) == reference_figure6(logs), name


def test_world_holds_its_cases(world):
    """Each world's D3 has the cases :data:`WORLDS` names for it."""
    name, cases, result = world
    logs = ArtifactContext(result).dataset("forms_http_logs")
    if "nonblank_referrer" in cases:
        assert reference_figure3(logs).nonblank_counts, name
    if "thin_page" in cases:
        # POSTs but fewer than MIN_VIEWS GETs: Figure 5 drops the page.
        thin = {page_id for page_id, events in logs.items()
                if any(e.request.method is Method.POST for e in events)
                and sum(e.request.method is Method.GET
                        for e in events) < MIN_VIEWS}
        assert thin, name
        shown = {page_id for page_id, _, _, _ in reference_figure5(logs).rates}
        assert not shown & thin, name
    if "no_pages" in cases:
        assert logs == {}, name
