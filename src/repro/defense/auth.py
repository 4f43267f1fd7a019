"""The authentication front door.

Every login — owner, manual hijacker, or bot — goes through
:meth:`AuthService.attempt_login`, which verifies the password, runs the
risk analyzer, possibly interposes a challenge, honors two-factor
enrollment, and logs exactly one :class:`~repro.logs.events.LoginEvent`.
This single choke point is what makes the login-log analyses (Figures 7
and 8, the 75% password-success stat) measurable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.defense.challenge import ChallengeService
from repro.defense.risk import LoginRiskAnalyzer
from repro.logs.events import Actor, HijackFlagEvent, LoginEvent
from repro.logs.store import LogStore
from repro.net.ip import IpAddress
from repro.world.accounts import Account


class LoginOutcome(enum.Enum):
    """Terminal result of one attempt."""

    SUCCESS = "success"
    WRONG_PASSWORD = "wrong_password"
    CHALLENGED_FAILED = "challenge_failed"
    BLOCKED = "blocked"
    ACCOUNT_SUSPENDED = "account_suspended"


@dataclass
class AuthService:
    """Password check → risk score → challenge → session."""

    store: LogStore
    risk: LoginRiskAnalyzer
    challenges: ChallengeService
    #: Score at which an attempt must pass a challenge.
    challenge_threshold: float = 0.50
    #: Score at which an attempt is refused outright.
    block_threshold: float = 0.93

    def attempt_login(self, account: Account, password: str, ip: IpAddress,
                      actor: Actor, now: int) -> LoginOutcome:
        if not account.state.can_login():
            self._log(account, ip, actor, now, password_correct=False,
                      succeeded=False, blocked=True, risk=1.0)
            return LoginOutcome.ACCOUNT_SUSPENDED

        password_correct = account.verify_password(password)
        if not password_correct:
            self._log(account, ip, actor, now, password_correct=False,
                      succeeded=False, risk=0.0)
            return LoginOutcome.WRONG_PASSWORD

        score = self.risk.score(account, ip, now)
        if score >= self.block_threshold:
            self._log(account, ip, actor, now, password_correct=True,
                      succeeded=False, blocked=True, risk=score)
            if actor is not Actor.OWNER:
                self.store.append(HijackFlagEvent(
                    timestamp=now, account_id=account.account_id,
                    source="login_risk",
                ))
            return LoginOutcome.BLOCKED

        needs_challenge = (
            score >= self.challenge_threshold
            or account.two_factor_phone is not None
        )
        if needs_challenge:
            if not self.challenges.challenge(account, actor, now):
                self._log(account, ip, actor, now, password_correct=True,
                          succeeded=False, challenged=True, risk=score)
                if actor is not Actor.OWNER and score >= self.challenge_threshold:
                    self.store.append(HijackFlagEvent(
                        timestamp=now, account_id=account.account_id,
                        source="login_risk",
                    ))
                return LoginOutcome.CHALLENGED_FAILED
            self._log(account, ip, actor, now, password_correct=True,
                      succeeded=True, challenged=True, risk=score)
        else:
            self._log(account, ip, actor, now, password_correct=True,
                      succeeded=True, risk=score)

        self.risk.observe_success(account, ip, now)
        account.mark_activity(now)
        return LoginOutcome.SUCCESS

    def _log(self, account: Account, ip: IpAddress, actor: Actor, now: int,
             password_correct: bool, succeeded: bool, risk: float,
             challenged: bool = False, blocked: bool = False) -> None:
        self.store.append(LoginEvent(
            timestamp=now,
            account_id=account.account_id,
            ip=ip,
            password_correct=password_correct,
            succeeded=succeeded,
            challenged=challenged,
            blocked=blocked,
            actor=actor,
            risk_score=risk,
        ))
