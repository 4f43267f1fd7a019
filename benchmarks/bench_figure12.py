"""Figure 12 — countries of hijacker-enrolled phone numbers.

Paper: Nigeria (35.7%) and Ivory Coast (33.8%) dominate — two distinct
groups — with South Africa ~10%; the Asian crews never used the
two-factor lockout tactic so CN/MY are absent.
"""

from repro.analysis import figure12
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = ("paper: NG 35.7%, CI 33.8%, ZA ~10%; CN/MY absent "
         "(300 phones, 2012)")


def test_figure12_phone_attribution(benchmark, attribution_result):
    figure = benchmark(lambda: figure12.compute(
        ArtifactContext(attribution_result)))
    assert figure.share("NG") + figure.share("CI") + figure.share("ZA") > 0.7
    assert figure.share("CN") == 0.0
    save_artifact("figure12", figure12.render(figure) + "\n" + PAPER)


def test_group_inference(benchmark, attribution_result):
    """Section 7's organized-group inference: distinct (country,
    language) clusters, with the five main countries all represented."""
    from repro.attribution.groups import infer_groups

    cases = ArtifactContext(attribution_result).dataset("hijack_cases")
    clusters = benchmark(
        infer_groups, attribution_result.store, attribution_result.geoip,
        cases)
    countries = {country for (country, _), members in clusters.items()
                 if len(members) >= 5}
    assert {"CN", "MY", "CI", "NG", "ZA"} <= countries
    lines = [f"Section 7: inferred groups over {len(cases)} cases"]
    for (country, language), members in sorted(
            clusters.items(), key=lambda kv: -len(kv[1]))[:8]:
        lines.append(f"  {country or '??'} / {language}: "
                     f"{len(members)} cases")
    lines.append("paper: five main countries; NG and CI are distinct "
                 "groups (different languages, 2000 km apart)")
    save_artifact("section7_groups", "\n".join(lines))
