from repro.scams.principles import Principle, principles_present


class TestTaxonomy:
    def test_five_principles(self):
        assert len(list(Principle)) == 5

    def test_descriptions_nonempty(self):
        for principle in Principle:
            assert principle.description


class TestDetection:
    def test_paper_mugging_excerpt_hits_all_five(self):
        excerpt = (
            "we were mugged last night in an alley... one of them had a "
            "knife poking my neck for almost two minutes... my cell phone, "
            "credit cards were all stolen... I'm urgently in need of some "
            "money to pay for my hotel bills and my flight ticket home, "
            "will payback as soon as i get back home... wire the money via "
            "Western Union"
        )
        found = principles_present(excerpt)
        assert set(found) == set(Principle)

    def test_empty_text(self):
        assert principles_present("") == []

    def test_ordinary_mail_hits_few(self):
        text = "Hi! Are we still on for lunch tomorrow? I found a new place."
        assert len(principles_present(text)) == 0

    def test_case_insensitive(self):
        assert Principle.UNTRACEABLE_TRANSFER in principles_present(
            "send via WESTERN UNION please")

    def test_order_is_stable(self):
        text = "western union; my phone was stolen; will payback"
        found = principles_present(text)
        assert found == sorted(found, key=list(Principle).index)
