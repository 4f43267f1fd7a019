"""The curation boundary: what stands in for the paper's human review."""

from repro.analysis import curation, datasets
from repro.net.email_addr import EmailAddress
from repro.phishing.templates import EMAIL_TEMPLATES
from repro.scams.classifier import MessageCategory, judge_text
from repro.world.messages import EmailMessage, MessageKind


def message(subject, body="", keywords=(), kind=MessageKind.ORGANIC):
    return EmailMessage(
        message_id="msg-000000",
        sender=EmailAddress("a", "primarymail.com"),
        recipients=(EmailAddress("b", "primarymail.com"),),
        subject=subject, body=body, sent_at=0, keywords=tuple(keywords),
        kind=kind,
    )


class TestReviewMessage:
    def test_phishing_recognized(self):
        reviewed = curation.review_message(message(
            "Action required",
            "verify your account or face deactivation; confirm your password",
        ))
        assert reviewed is MessageCategory.PHISHING

    def test_keywords_visible_to_reviewer(self):
        reviewed = curation.review_message(message(
            "notice", keywords=("verify", "password", "suspended",
                                "click the link")))
        assert reviewed is not MessageCategory.OTHER

    def test_personal_mail_is_other(self):
        assert curation.review_message(
            message("lunch?")) is MessageCategory.OTHER


class TestReviewTarget:
    def test_bank_markers(self):
        assert curation.review_phishing_target(message(
            "alert", body="your bank statement is ready")) == "Bank"

    def test_mail_markers(self):
        assert curation.review_phishing_target(message(
            "verify your mail account")) == "Mail"

    def test_fallback_other(self):
        assert curation.review_phishing_target(message(
            "parcel delayed")) == "Other"

    def test_every_template_reviews_back_to_its_target(self):
        for template in EMAIL_TEMPLATES:
            delivered = message(template.subject, template.body,
                                template.keywords())
            assert curation.review_phishing_target(delivered) == \
                template.target.value, f"{template.subject} / {template.body}"


class TestVerdictMemo:
    """``judge_text`` keeps one verdict per distinct visible text."""

    def test_kind_is_not_part_of_the_key(self):
        text = ("Action required", "verify your account; confirm your password")
        judge_text.cache_clear()
        as_phishing = curation.review_message(
            message(*text, kind=MessageKind.PHISHING))
        as_organic = curation.review_message(
            message(*text, kind=MessageKind.ORGANIC))
        assert as_phishing is as_organic is MessageCategory.PHISHING
        info = judge_text.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_one_judgement_per_distinct_reviewed_text(self, smoke_result,
                                                      monkeypatch):
        reviewed = []

        def recording_review(message):
            reviewed.append(message)
            return curation.review_message(message)

        monkeypatch.setattr(datasets, "review_message", recording_review)
        judge_text.cache_clear()
        datasets.Datasets(smoke_result).get("phishing_emails")
        texts = {(m.subject, " ".join((m.body,) + m.keywords))
                 for m in reviewed}
        info = judge_text.cache_info()
        assert info.misses == len(texts)
        assert info.hits == len(reviewed) - len(texts)
        # Lures repeat: the memo saves most of the reviews.
        assert len(texts) < len(reviewed)
