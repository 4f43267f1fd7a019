import pytest

from repro.net.phones import (
    CALLING_CODES,
    PhoneNumber,
    PhoneNumberPlan,
    country_of_calling_code,
)


class TestPhoneNumber:
    def test_valid_e164(self):
        number = PhoneNumber("+2348012345678")
        assert number.digits == "2348012345678"

    def test_rejects_malformed(self):
        for bad in ("2348012345678", "+abc", "+123", "+" + "1" * 16):
            with pytest.raises(ValueError):
                PhoneNumber(bad)

    def test_longest_prefix_wins(self):
        # 225 (CI) must win over 22 / 2.
        assert PhoneNumber("+22512345678").country() == "CI"
        # 234 (NG) vs 23.
        assert PhoneNumber("+2348012345678").country() == "NG"

    def test_two_digit_code(self):
        assert PhoneNumber("+27123456789").country() == "ZA"
        assert PhoneNumber("+8613812345678").country() == "CN"

    def test_nanp(self):
        assert PhoneNumber("+14155551234").country() == "US"

    def test_unknown_code(self):
        assert PhoneNumber("+999123456789").country() is None

    def test_str(self):
        assert str(PhoneNumber("+8613812345678")) == "+8613812345678"


class TestCallingCodes:
    def test_country_of_calling_code(self):
        assert country_of_calling_code("234") == "NG"
        assert country_of_calling_code("225") == "CI"
        assert country_of_calling_code("000") is None

    def test_study_countries_covered(self):
        countries = set(CALLING_CODES.values())
        for code in ("CN", "MY", "CI", "NG", "ZA", "VE", "ML", "AF"):
            assert code in countries


class TestPhoneNumberPlan:
    def test_mint_attributes_back(self, rng):
        plan = PhoneNumberPlan(rng)
        for country in ("NG", "CI", "ZA", "CN", "VE"):
            number = plan.mint(country)
            assert number.country() == country

    def test_mint_distinct(self, rng):
        plan = PhoneNumberPlan(rng)
        numbers = [plan.mint("NG") for _ in range(100)]
        assert len(set(numbers)) == 100

    def test_large_batch_distinct(self, rng):
        plan = PhoneNumberPlan(rng)
        numbers = [plan.mint("NG") for _ in range(20_000)]
        assert len({number.e164 for number in numbers}) == 20_000
        assert all(number.country() == "NG" and len(number.digits) == 13
                   for number in numbers)

    def test_canada_maps_to_nanp(self, rng):
        # CA shares +1; attribution resolves to US (documented).
        number = PhoneNumberPlan(rng).mint("CA")
        assert number.calling_code() == "1"
        assert number.country() == "US"

    def test_unknown_country_rejected(self, rng):
        with pytest.raises(KeyError):
            PhoneNumberPlan(rng).mint("ZZ")
