"""The remediation study: Section 6 of the paper.

Measures recovery latency (Figure 9), per-channel success rates
(Figure 10), the recycled-secondary-email problem (~7% of recovery
addresses), and shows remission undoing a hijacker's damage.

Run:  python examples/recovery_study.py
"""

import time

from repro import Simulation
from repro.analysis import figure9, figure10
from repro.analysis.registry import ArtifactContext
from repro.core.scenarios import recovery_study, retention_study
from repro.hijacker.groups import Era
from repro.logs.events import RemissionEvent


def main() -> None:
    print("running the recovery scenario ...")
    started = time.time()
    result = Simulation(recovery_study(seed=7)).run()
    print(f"done in {time.time() - started:.1f}s\n")
    ctx = ArtifactContext(result)

    print(figure9.render(figure9.compute(ctx)))
    print("paper: 22% within 1 h, 50% within 13 h\n")

    print(figure10.render(figure10.compute(ctx)))
    print("paper: SMS 80.91%, Email 74.57%, Fallback 14.20%\n")

    recycled = sum(
        1 for account in result.population.accounts.values()
        if account.recovery.secondary_email is not None
        and account.recovery.secondary_email_recycled)
    with_secondary = sum(
        1 for account in result.population.accounts.values()
        if account.recovery.secondary_email is not None)
    print(f"recycled secondary recovery emails: "
          f"{recycled}/{with_secondary} = {recycled / with_secondary:.1%} "
          f"(paper: ~7%)\n")

    remissions = result.store.query(RemissionEvent)
    opted_in = sum(1 for e in remissions if e.user_opted_in)
    reverted = sum(e.settings_reverted for e in remissions)
    print(f"remissions run: {len(remissions)} "
          f"(content restoration opted into: {opted_in}; "
          f"hijacker settings reverted: {reverted})")

    # Mass deletion was a 2011 tactic (46% of lockouts) — run a small
    # 2011-era world to show remission restoring deleted mailboxes,
    # which is exactly the provider change that killed the tactic.
    print("\nreplaying an era-2011 world to exercise content restoration ...")
    era_result = Simulation(retention_study(Era.Y2011, seed=7).with_overrides(
        horizon_days=21, n_users=5_000, campaigns_per_week=18)).run()
    restorations = [e for e in era_result.store.query(RemissionEvent)
                    if e.messages_restored > 0]
    print(f"mailboxes restored after mass deletion: {len(restorations)}")
    if restorations:
        heaviest = max(restorations, key=lambda e: e.messages_restored)
        print(f"largest restoration: {heaviest.messages_restored} messages "
              f"on {heaviest.account_id}")


if __name__ == "__main__":
    main()
