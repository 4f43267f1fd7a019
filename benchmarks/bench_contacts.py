"""Section 5.3 — exploiting the victim's contacts.

Paper numbers: hijack-day outgoing volume +25% vs the previous day,
distinct recipients +630%, spam/phishing reports +39%; reviewed messages
35% phishing / 65% scams; contacts of victims hijacked at 36× the random
base rate over the following 60 days.
"""

from repro.analysis import contacts
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = ("paper: volume +25%, distinct recipients +630%, reports +39%; "
         "review 35% phishing / 65% scam; contact lift 36x")


def test_section53_hijack_day_deltas(benchmark, exploitation_result):
    deltas = benchmark(lambda: contacts.hijack_day_deltas(
        ArtifactContext(exploitation_result)))
    assert deltas.volume_ratio < deltas.distinct_recipient_ratio
    ctx = ArtifactContext(exploitation_result)
    split = contacts.scam_phishing_split(ctx)
    lift = contacts.contact_lift(ctx)
    save_artifact("section53",
                  contacts.render(deltas, split, lift) + "\n" + PAPER)


def test_section53_contact_lift(benchmark, contact_lift_worlds):
    """Pooled over three independent worlds: a single world's contact
    cohort sees single-digit hijack counts, so only the pooled ratio is
    stable (the paper's scale pooled implicitly)."""
    lift = benchmark(contacts.pooled_contact_lift, contact_lift_worlds)
    assert lift.contact_rate > lift.random_rate
    assert lift.lift is not None and lift.lift > 10.0
    save_artifact("section53_lift", "\n".join([
        "Dataset 9: contact-targeting lift (pooled over 3 worlds)",
        f"  contact cohort: {lift.contact_hijacked}/{lift.contact_cohort_size}"
        f" = {lift.contact_rate:.2%}",
        f"  random cohort:  {lift.random_hijacked}/{lift.random_cohort_size}"
        f" = {lift.random_rate:.3%}",
        "  lift: " + ("n/a" if lift.lift is None else f"{lift.lift:.0f}x"),
        "paper: 36x over the following 60 days",
    ]))
