"""The attribution study: Section 7 of the paper.

Geolocates hijacker IPs (Figure 11), maps hijacker-enrolled two-factor
phones to countries via E.164 calling codes (Figure 12), infers distinct
organized groups from per-case signatures (geography + search language +
working shift), and prints the Section 5.5 office-job fingerprint that
backs the organized-group hypothesis.

Run:  python examples/attribution_study.py
"""

import time

from repro import Simulation
from repro.analysis import figure11, figure12, workweek
from repro.analysis.registry import ArtifactContext
from repro.attribution.groups import infer_groups
from repro.core.scenarios import attribution_study


def main() -> None:
    print("running the attribution scenario ...")
    started = time.time()
    result = Simulation(attribution_study(seed=11)).run()
    print(f"done in {time.time() - started:.1f}s\n")
    ctx = ArtifactContext(result)

    print(figure11.render(figure11.compute(ctx)))
    print("paper: CN & MY dominate; CI, NG, ZA (~10%), VE visible\n")

    print(figure12.render(figure12.compute(ctx)))
    print("paper: NG 35.7% and CI 33.8% dominate; CN/MY absent "
          "(they never used the phone-lockout tactic)\n")

    cases = ctx.dataset("hijack_cases")
    clusters = infer_groups(result.store, result.geoip, cases)
    print(f"inferred {len(clusters)} distinct groups from "
          f"{len(cases)} cases:")
    for (country, language), members in sorted(
            clusters.items(), key=lambda kv: -len(kv[1])):
        print(f"  {country or '??'} / {language}: {len(members)} cases")
    print("paper: the NG and CI actors are distinct groups — different "
          "languages, 2000 km apart\n")

    print(workweek.render(workweek.compute(ctx)))


if __name__ == "__main__":
    main()
