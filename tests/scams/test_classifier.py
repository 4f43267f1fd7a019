from repro.phishing.templates import EMAIL_TEMPLATES
from repro.scams.classifier import (
    MessageCategory,
    classify_text,
    judge_text,
)
from repro.scams.corpus import SCHEMES
from repro.scams.generator import ScamGenerator


class TestClassifier:
    def test_phishing_detected(self):
        category = classify_text(
            "Action required",
            "Your account will be suspended. Click the link and confirm "
            "your password to keep access.",
        )
        assert category is MessageCategory.PHISHING

    def test_generated_scams_classified_as_scam(self, rng):
        generator = ScamGenerator(rng)
        for _ in range(30):
            scam = generator.generate("Alex Smith", "US")
            assert classify_text(scam.subject, scam.body) is MessageCategory.SCAM

    def test_bulk_spam_detected(self):
        category = classify_text(
            "Best pills", "Cheap pills, limited offer! unsubscribe here")
        assert category is MessageCategory.BULK_SPAM

    def test_ordinary_mail_is_other(self):
        assert classify_text("lunch?", "are we still on for noon?") is \
            MessageCategory.OTHER

    def test_sympathy_alone_is_not_a_scam(self):
        """A single emotional phrase in organic mail must not trigger."""
        category = classify_text(
            "so sorry", "I'm so sorry to hear your aunt is ill; thinking of you.")
        assert category is not MessageCategory.SCAM

    def test_credential_bait_outranks_weak_scam_signals(self):
        category = classify_text(
            "urgent", "Please sign in to confirm your password, I need your "
            "help urgently.")
        assert category is MessageCategory.PHISHING

    def test_judgement_carries_evidence(self):
        judgement = judge_text("x", "confirm your password now, click the link")
        assert judgement.category is MessageCategory.PHISHING
        assert judgement.phishing_hits >= 1


class TestVerdictMemo:
    def test_memo_agrees_with_the_unmemoized_judge(self, rng):
        """Every corpus text and generated scam: cached verdict == fresh."""
        texts = [scheme.fill("Alex Smith") for scheme in SCHEMES]
        texts += [(template.subject,
                   " ".join((template.body,) + template.keywords()))
                  for template in EMAIL_TEMPLATES]
        generator = ScamGenerator(rng)
        for customized in (False, True):
            for _ in range(30):
                scam = generator.generate("Alex Smith", "US", customized)
                texts.append((scam.subject, " ".join(
                    (scam.body,) + scam.keywords)))
        for subject, body in texts:
            # Twice: the first call may fill the memo, the second reads it.
            for _ in range(2):
                assert judge_text(subject, body) == \
                    judge_text.__wrapped__(subject, body)
