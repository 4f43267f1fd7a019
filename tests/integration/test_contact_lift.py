"""The 36x contact-targeting lift (Dataset 9) — the paper's strongest
evidence that hijackers phish the previous victims' contacts.

A single world of our size yields single-digit contact-hijack counts, so
the test pools two independent worlds (the bench pools three); only the
pooled ratio is stable enough to assert on.
"""

import pytest

from repro import Simulation
from repro.analysis import contacts
from repro.analysis.registry import ArtifactContext
from repro.core.scenarios import contact_lift_study


@pytest.fixture(scope="module")
def lift():
    contexts = []
    for seed in (7, 11):
        config = contact_lift_study(seed).with_overrides(
            horizon_days=35, n_users=18_000, campaigns_per_week=10)
        contexts.append(ArtifactContext(Simulation(config).run()))
    return contacts.pooled_contact_lift(contexts)


class TestContactLift:
    def test_cohorts_populated(self, lift):
        assert lift.contact_cohort_size >= 80
        assert lift.random_cohort_size >= 2000

    def test_contacts_heavily_targeted(self, lift):
        assert lift.contact_hijacked > 0
        assert lift.contact_rate > 0.02

    def test_random_baseline_small(self, lift):
        assert lift.random_rate < 0.02

    def test_lift_order_of_magnitude(self, lift):
        """Paper: 36x.  The pooled estimate must land in the tens."""
        assert lift.lift is not None
        assert lift.lift > 10.0
