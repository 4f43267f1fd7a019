"""The phishing-traffic study: Section 4 of the paper.

Reproduces the credential-acquisition analyses from a traffic-heavy
scenario: what account types phishing targets (Table 2), how victims
arrive (Figure 3 referrers), who gets phished (Figure 4 TLDs), how well
pages convert (Figure 5), and how traffic decays to takedown — including
the step-function outlier (Figure 6).

Run:  python examples/phishing_campaign_study.py
"""

import time

from repro import Simulation
from repro.analysis import figure3, figure4, figure5, figure6, table2
from repro.analysis.registry import ArtifactContext
from repro.core.scenarios import phishing_traffic_study


def main() -> None:
    print("running the phishing-traffic scenario ...")
    started = time.time()
    result = Simulation(phishing_traffic_study(seed=7)).run()
    print(f"done in {time.time() - started:.1f}s\n")
    ctx = ArtifactContext(result)

    print(table2.render(table2.compute(ctx)))
    print("paper: emails 35/21/16/14/14, pages 27/25/17/15/15\n")

    print(figure3.render(figure3.compute(ctx)))
    print("paper: >99% blank referrers\n")

    print(figure4.render(figure4.compute(ctx)))
    print("paper: .edu dominates (weak self-hosted spam filtering)\n")

    print(figure5.render(figure5.compute(ctx)))
    print("paper: average 13.78%, spread 3%-45%\n")

    print(figure6.render(figure6.compute(ctx)))
    print("paper: decay from first visit; one step-function outlier")

    # The Section 4.2 context stat: pages SafeBrowsing flags per week.
    weekly = [len(result.safebrowsing.detections_in_week(w))
              for w in range(result.config.horizon_days // 7)]
    print(f"\npages detected per week in our small web: {weekly}")


if __name__ == "__main__":
    main()
