import pytest

from repro.core.config import SimulationConfig
from repro.hijacker.groups import Era


class TestValidation:
    def test_defaults_valid(self):
        SimulationConfig()

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            SimulationConfig(horizon_days=0)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            SimulationConfig(provider_target_fraction=1.2)
        with pytest.raises(ValueError):
            SimulationConfig(forms_hosting_fraction=-0.1)

    def test_rejects_no_crews(self):
        with pytest.raises(ValueError):
            SimulationConfig(crews=())

    def test_rejects_negative_cadence(self):
        with pytest.raises(ValueError):
            SimulationConfig(campaigns_per_week=-1)


class TestDerivation:
    def test_with_overrides(self):
        config = SimulationConfig(seed=1)
        other = config.with_overrides(seed=2, era=Era.Y2011)
        assert other.seed == 2
        assert other.era is Era.Y2011
        assert config.seed == 1  # original untouched
