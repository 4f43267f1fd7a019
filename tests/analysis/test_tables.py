import pytest

from repro.analysis import table1, table2, table3
from repro.analysis.registry import ArtifactContext


class TestTable1:
    def test_fourteen_rows(self, exploitation_result):
        specs = table1.compute(ArtifactContext(exploitation_result))
        assert len(specs) == 14
        assert "Table 1" in table1.render(specs)


class TestTable2:
    @pytest.fixture(scope="class")
    def result_table(self, exploitation_result):
        return table2.compute(ArtifactContext(exploitation_result))

    def test_mail_tops_both_columns(self, result_table):
        emails = result_table.email_counts
        pages = result_table.page_counts
        assert emails and pages
        assert max(emails, key=emails.get) == "Mail"
        assert max(pages, key=pages.get) == "Mail"

    def test_bank_is_second_in_pages(self, result_table):
        ordered = sorted(result_table.page_counts.items(),
                         key=lambda pair: -pair[1])
        assert ordered[1][0] == "Bank"

    def test_rows_ordered_like_paper(self, result_table):
        labels = [row[0] for row in result_table.rows()]
        assert labels == ["Mail", "Bank", "App Store", "Social network",
                          "Other"]

    def test_render(self, result_table):
        text = table2.render(result_table)
        assert "Phishing emails" in text
        assert "Mail" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def result_table(self, exploitation_result):
        return table3.compute(ArtifactContext(exploitation_result))

    def test_finance_dominates(self, result_table):
        finance = sum(share for _, share in result_table.shares["Finance"])
        accounts = sum(share for _, share in result_table.shares["Account"])
        content = sum(share for _, share in result_table.shares["Content"])
        assert finance > 0.6
        assert finance > 5 * max(accounts, content, 0.001)

    def test_wire_transfer_is_top_term(self, result_table):
        top_term, top_share = result_table.shares["Finance"][0]
        assert top_term in ("wire transfer", "bank transfer")
        assert top_share > 0.1

    def test_spanish_and_chinese_terms_present(self, result_table):
        finance_terms = {term for term, _ in result_table.shares["Finance"]}
        assert "transferencia" in finance_terms
        assert "账单" in finance_terms

    def test_bucket_of(self):
        assert table3.bucket_of("wire transfer") == "Finance"
        assert table3.bucket_of("password") == "Account"
        assert table3.bucket_of("is:starred") == "Content"
        assert table3.bucket_of("flight confirmation") == "Other"

    def test_render(self, result_table):
        text = table3.render(result_table)
        assert "Finance" in text
