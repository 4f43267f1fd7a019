"""The defense discussion quantified: Section 8 of the paper.

Sweeps the login-risk aggressiveness knob to trace the false-positive /
false-negative balance the paper describes, contrasts how detectable
manual crews are against the automated-botnet baseline (Figure 1's two
ends), and shows why behavioral detection is "a last resort".

Run:  python examples/defense_tradeoff.py
"""

import time

from repro import Simulation
from repro.analysis import defense, figure1
from repro.analysis.registry import ArtifactContext
from repro.core.scenarios import exploitation_study, taxonomy_study


def main() -> None:
    base = exploitation_study(seed=7).with_overrides(
        horizon_days=14, n_users=4_000, campaigns_per_week=16)

    print("sweeping login-risk aggressiveness (three worlds) ...")
    started = time.time()
    points = defense.sweep_aggressiveness(base, settings=(0.5, 1.0, 1.8))
    print(f"done in {time.time() - started:.1f}s\n")
    print(defense.render(points))
    print("paper: a small owner-friction rate is 'a fair price' for "
          "blocking hijacks\n")

    too_late = [p.behavioral_too_late_rate for p in points
                if p.behavioral_too_late_rate is not None]
    if too_late:
        print(f"behavioral flags arriving after the hijacker already sent "
              f"mail: {max(too_late):.0%} "
              f"(paper: behavioral analysis is a last resort)\n")

    print("contrasting manual crews with an automated botnet ...")
    result = Simulation(taxonomy_study(seed=5)).run()
    ctx = ArtifactContext(result)
    print(figure1.render(figure1.compute(ctx)))
    botnet = result.botnet_report
    print(f"\nbotnet wave: {botnet.attempts} attempts from "
          f"{botnet.distinct_ips} IPs — "
          f"{botnet.blocked} stopped at login "
          f"({botnet.blocked / botnet.attempts:.0%}).")
    manual_point = defense.evaluate(ctx)
    print(f"manual crews stopped at login: "
          f"{manual_point.hijacker_stop_rate:.0%} — the blend-in "
          f"guideline works (paper: manual hijacking is the hard case).")


if __name__ == "__main__":
    main()
