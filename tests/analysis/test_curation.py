"""The curation boundary: what stands in for the paper's human review."""

from repro.analysis import curation
from repro.net.email_addr import EmailAddress
from repro.scams.classifier import MessageCategory
from repro.world.messages import EmailMessage


def message(subject, body="", keywords=()):
    return EmailMessage(
        message_id="msg-000000",
        sender=EmailAddress("a", "primarymail.com"),
        recipients=(EmailAddress("b", "primarymail.com"),),
        subject=subject, body=body, sent_at=0, keywords=tuple(keywords),
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
