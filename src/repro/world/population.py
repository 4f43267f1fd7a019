"""Population builder: users, accounts, mailbox history, contact graph,
and the external (non-provider) victim pool.

Two populations matter to the study:

* **Provider users** — accounts at the primary provider whose logs the
  measurement pipeline mines (the "Google users" of the paper).
* **External victims** — addresses at other providers and self-hosted
  ``.edu`` domains.  Phishing campaigns spray both; Figure 4's finding
  that >99% of phished addresses are ``.edu`` emerges from the far weaker
  commodity spam filtering in front of self-hosted mail (Section 4.2's
  explanation, calibrated to Kanich et al.'s 10× delivery-rate gap).

Scale architecture (the path to 10⁵–10⁶ accounts):

* **Lazy mailbox history.**  Building a world no longer pays for ~30
  history messages per account up front.  The ``population.history``
  stream is consumed exactly once (a 64-bit master draw); each account's
  history materializes from a private ``random.Random(child_seed)``,
  derived from ``(master, account_id)`` at that moment, the first time
  anything reads the mailbox; mail delivered before that is
  queued and filed after the history (see :mod:`repro.world.mailbox`),
  so receiving mail costs no history.  The derivation is
  order-independent, so a world is **bit-identical** to the same world
  with every mailbox touched right after the build
  (``tests/world/equivalence.py`` fingerprints both), no matter
  which mailboxes get touched, in what order, or never.
* **Streamed external victims.**  The external pool is a lazy sequence:
  victim *i* is derived from ``(external master, i)`` on first index.
  Campaign targeting samples *indices* (``rng.sample(range(n), k)``)
  and indexes the pool, so a campaign materializes only the victims it
  picks.  (``rng.sample(pool, k)`` would not: CPython copies a Sequence
  population with ``list()`` whenever k is large against it.)
* **Array-backed contact graph** — built straight into int lists; see
  :mod:`repro.world.contacts`.
* **One collection per build.**  A build allocates millions of objects
  that all survive, so CPython's automatic collector would sweep the
  growing heap again and again for nothing.  :func:`build_population`
  pauses it, restores the caller's setting on the way out, and ends
  with one ``gc.collect(1)``: the new world is swept once, young
  generations only, and that sweep is paid inside the build.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Union)

from repro import obs
from repro.net import domains
from repro.net.email_addr import EmailAddress, generate_address, generate_username
from repro.net.phones import PhoneNumberPlan
from repro.util.clock import DAY
from repro.util.compat import SLOT_KWARGS
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry, child_seed
from repro.world.accounts import Account, RecoveryOptions
from repro.world.contacts import ContactGraph, build_small_world
from repro.world.mailbox import Mailbox
from repro.world.messages import EmailMessage, Folder, MessageKind
from repro.world.users import (
    User,
    language_of_country,
    sample_activity,
    sample_gullibility,
    sample_home_country,
    sample_traits,
)

if TYPE_CHECKING:
    from repro.core.config import SimulationConfig

_PASSWORD_WORDS = (
    "sunshine", "dragon", "monkey", "shadow", "winter", "coffee", "guitar",
    "purple", "silver", "rocket", "tiger", "ocean", "maple", "falcon",
)
_N_WORDS = len(_PASSWORD_WORDS)
_N_NUMBERS = 10_000 - 10  # randrange(10, 10_000)
_WORD_BITS = _N_WORDS.bit_length()
_NUMBER_BITS = _N_NUMBERS.bit_length()

_ORGANIC_SUBJECTS = (
    "lunch tomorrow?", "re: weekend plans", "photos from the trip",
    "meeting notes", "quick question", "re: project update",
    "happy birthday!", "recipe you asked for", "re: re: carpool",
)

_FINANCIAL_KEYWORDS_BY_LANGUAGE = {
    "en": ("wire transfer", "bank transfer", "bank statement", "investment",
           "account statement", "wire"),
    "es": ("transferencia", "banco", "wire transfer", "bank transfer"),
    "fr": ("virement", "banque", "transfer", "bank transfer"),
    "de": ("bank", "transfer", "wire transfer"),
    "pt": ("banco", "transferencia", "transfer"),
    "zh": ("账单", "bank", "wire transfer"),
}

_CREDENTIAL_KEYWORDS = (
    "password", "amazon", "dropbox", "paypal", "match", "ftp", "facebook",
    "skype", "username",
)

_MEDIA_KEYWORDS = ("jpg", "mov", "mp4", "3gp", "passport", "sex", "jpeg", "png", "zip")

#: External correspondents seen in organic history threads.
_HISTORY_EXTERNAL_DOMAINS = domains.OTHER_PROVIDERS + ("corp-mail.example.com",)

#: Block probability of commodity (.edu self-hosted) filtering vs the
#: primary provider vs other major mail providers.  The ~10× delivery
#: gap (Kanich et al., echoed in Section 4.2) is what makes Figure 4
#: come out overwhelmingly .edu.
EDU_FILTER_STRENGTH = 0.30
PROVIDER_FILTER_STRENGTH = 0.85
OTHER_PROVIDER_FILTER_STRENGTH = 0.97


@dataclass(**SLOT_KWARGS)
class ExternalVictim:
    """A phishable address outside the primary provider.

    ``spam_filter_strength`` is the probability an unsolicited phishing
    email is *blocked* before the user sees it.
    """

    address: EmailAddress
    spam_filter_strength: float
    gullibility: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.spam_filter_strength <= 1.0:
            raise ValueError(f"filter strength out of range: {self.spam_filter_strength}")


class ExternalVictimPool(Sequence):
    """A lazily materialized, deterministic sequence of external victims.

    Victim *i* is a pure function of ``(master seed, i, pool sizes)``, so
    indexing is order-independent and two pools built from the same seed
    agree element-wise.  Only indexed victims are ever constructed.  To
    sample, draw indices and index the pool: ``random.sample(pool, k)``
    copies the whole pool with ``list()`` unless k is small against it.
    """

    __slots__ = ("_master_seed", "_n_edu", "_n_other", "_other_domains",
                 "_cache")

    def __init__(self, master_seed: int, n_edu: int, n_other: int):
        self._master_seed = master_seed
        self._n_edu = n_edu
        self._n_other = n_other
        self._other_domains = tuple(
            f"mailhost.{tld}" for tld in domains.FIGURE4_TLDS if tld != "edu"
        )
        self._cache: Dict[int, ExternalVictim] = {}

    def __len__(self) -> int:
        return self._n_edu + self._n_other

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"victim index out of range: {index}")
        victim = self._cache.get(index)
        if victim is None:
            victim = self._materialize(index)
            self._cache[index] = victim
        return victim

    def __iter__(self) -> Iterator[ExternalVictim]:
        return (self[i] for i in range(len(self)))

    def victims_at(self, indices: Iterable[int]) -> List[ExternalVictim]:
        """``[self[i] for i in indices]``, checking only the indices it
        must materialize (a cached index is in range by construction)."""
        cache = self._cache
        victims = []
        for index in indices:
            victim = cache.get(index)
            if victim is None:
                if not 0 <= index < len(self):
                    raise IndexError(f"victim index out of range: {index}")
                victim = cache[index] = self._materialize(index)
            victims.append(victim)
        return victims

    def _materialize(self, index: int) -> ExternalVictim:
        obs.count("population.build.external_materialized")
        rng = random.Random(child_seed(self._master_seed, f"external:{index}"))
        if index < self._n_edu:
            domain = rng.choice(domains.EDU_DOMAINS)
            return ExternalVictim(
                address=EmailAddress(f"student{index:06d}", domain),
                spam_filter_strength=EDU_FILTER_STRENGTH,
                gullibility=sample_gullibility(rng),
            )
        domain = rng.choice(self._other_domains)
        return ExternalVictim(
            address=EmailAddress(f"user{index - self._n_edu:06d}", domain),
            spam_filter_strength=OTHER_PROVIDER_FILTER_STRENGTH,
            gullibility=sample_gullibility(rng),
        )


@dataclass
class Population:
    """Everything :mod:`repro.core.simulation` operates on."""

    users: Dict[str, User]
    accounts: Dict[str, Account]
    contact_graph: ContactGraph
    external_victims: Sequence[ExternalVictim]
    account_by_address: Dict[str, Account] = field(default_factory=dict)
    account_by_user: Dict[str, Account] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.account_by_address:
            self.account_by_address = {
                str(account.address): account for account in self.accounts.values()
            }
        if not self.account_by_user:
            self.account_by_user = {
                account.owner.user_id: account for account in self.accounts.values()
            }

    def lookup_address(self, address: EmailAddress) -> Optional[Account]:
        return self.account_by_address.get(str(address))

    def account_of_user(self, user_id: str) -> Account:
        return self.account_by_user[user_id]

    def contacts_of_account(self, account: Account) -> List[Account]:
        return [
            self.account_of_user(user_id)
            for user_id in self.contact_graph.contacts_of(account.owner.user_id)
        ]

    def __len__(self) -> int:
        return len(self.accounts)


def generate_password(rng: random.Random) -> str:
    """A realistic weak password: word + 2–4 digits.

    Draws what ``choice(_PASSWORD_WORDS)`` and ``randrange(10, 10_000)``
    would: ``getrandbits(k)`` until the value is below the draw's size.
    """
    getrandbits = rng.getrandbits
    word = getrandbits(_WORD_BITS)
    while word >= _N_WORDS:
        word = getrandbits(_WORD_BITS)
    number = getrandbits(_NUMBER_BITS)
    while number >= _N_NUMBERS:
        number = getrandbits(_NUMBER_BITS)
    return f"{_PASSWORD_WORDS[word]}{number + 10}"


def build_population(config: SimulationConfig, rngs: RngRegistry,
                     minter: IdMinter, phone_plan: PhoneNumberPlan) -> Population:
    """Construct the full simulated population.

    Deterministic for a fixed (config, master seed): user attributes,
    contact graph, and mailbox histories all come from named RNG streams.
    History and the external pool are derived via per-entity child seeds
    (order-independent): each mailbox's history materializes on first
    read, and *when* that happens never changes *what* it is.

    Automatic garbage collection is paused for the build and the
    caller's setting restored afterwards, even if the build raises; a
    finished build ends with one generation-1 collection (the
    ``population.build.gc`` span).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build_population(config, rngs, minter, phone_plan)
    finally:
        if enabled:
            gc.enable()


def _build_population(config: SimulationConfig, rngs: RngRegistry,
                      minter: IdMinter, phone_plan: PhoneNumberPlan) -> Population:
    user_rng = rngs.stream("population.users")
    history_rng = rngs.stream("population.history")
    graph_rng = rngs.stream("population.graph")
    external_rng = rngs.stream("population.external")
    #: One draw each — everything downstream derives per-entity seeds.
    history_master = history_rng.getrandbits(64)
    external_master = external_rng.getrandbits(64)

    users: Dict[str, User] = {}
    accounts: Dict[str, Account] = {}
    taken_usernames: set = set()

    with obs.trace("population.build", n_users=config.n_users):
        with obs.trace("population.build.users"):
            for _ in range(config.n_users):
                user_id = minter.mint("user")
                country = sample_home_country(user_rng)
                address = generate_address(user_rng, domains.PRIMARY_PROVIDER,
                                           taken_usernames)
                taken_usernames.add(address.username)
                user = User(
                    user_id=user_id,
                    name=address.username.replace(".", " ").title(),
                    country=country,
                    language=language_of_country(country),
                    activity=sample_activity(user_rng),
                    gullibility=sample_gullibility(user_rng),
                    traits=sample_traits(user_rng),
                    has_phone_on_file=user_rng.random() < config.phone_on_file_rate,
                    has_secondary_email=user_rng.random() < config.secondary_email_rate,
                )
                if user.has_secondary_email:
                    user.secondary_email_recycled = (
                        user_rng.random() < config.recycled_secondary_rate
                    )

                recovery = RecoveryOptions(
                    phone=phone_plan.mint(country) if user.has_phone_on_file else None,
                    secondary_email=(
                        generate_address(user_rng, user_rng.choice(domains.OTHER_PROVIDERS))
                        if user.has_secondary_email else None
                    ),
                    secondary_email_recycled=user.secondary_email_recycled,
                    has_secret_question=user.has_secret_question,
                )
                account = Account(
                    account_id=minter.mint("acct"),
                    owner=user,
                    address=address,
                    password=generate_password(user_rng),
                    recovery=recovery,
                    mailbox=Mailbox(address),
                )
                if (recovery.phone is not None
                        and user_rng.random() < config.owner_two_factor_adoption):
                    account.enable_two_factor(recovery.phone, by_hijacker=False,
                                              now=0)
                users[user_id] = user
                accounts[account.account_id] = account

        with obs.trace("population.build.graph", n_users=config.n_users):
            contact_graph = build_small_world(
                sorted(users), graph_rng, mean_degree=config.mean_contacts,
            )

        population = Population(
            users=users,
            accounts=accounts,
            contact_graph=contact_graph,
            external_victims=ExternalVictimPool(
                external_master,
                n_edu=config.n_external_edu,
                n_other=config.n_external_other,
            ),
        )

        with obs.trace("population.build.history"):
            for account in accounts.values():
                account.mailbox.defer_seed(HistorySeeder(
                    population, config, account, history_master))

        with obs.trace("population.build.gc"):
            gc.collect(1)
    return population


class HistorySeeder:
    """A deferred seeder filling one account's pre-simulation history.

    History is what the hijacker's profiling phase searches: organic
    threads with graph contacts *and* external correspondents (friends
    at other providers, lists, colleagues).  The externals matter for
    Section 5.3's fan-out numbers — a hijacker blasting "the contact
    list" reaches every correspondent, not just provider users.

    All randomness comes from a private
    ``random.Random(child_seed(master, account_id))``, derived when the
    seeder runs rather than stored per account, and all
    message ids from a per-account namespace, so running this at build
    time, mid-simulation, or never produces the same world.  A class
    (not a closure) so pending mailboxes survive pickling — the parallel
    runner ships whole worlds across process boundaries.
    """

    __slots__ = ("_population", "_config", "_account", "_master")

    def __init__(self, population: Population, config: SimulationConfig,
                 account: Account, master: int):
        self._population = population
        self._config = config
        self._account = account
        self._master = master

    def __call__(self, mailbox: Mailbox) -> None:
        account = self._account
        rng = random.Random(child_seed(self._master, account.account_id))
        user = account.owner
        contacts = self._population.contacts_of_account(account)
        if not contacts:
            return
        history_span = 365 * DAY
        n_external = rng.randrange(15, 45)
        external_pool = [
            EmailAddress(f"{generate_username(rng)}{rng.randrange(100)}",
                         rng.choice(_HISTORY_EXTERNAL_DOMAINS))
            for _ in range(n_external)
        ]
        #: Per-account message-id namespace ("msgh-<acct number>-<n>"):
        #: ids never depend on materialization order or a shared counter.
        id_stem = f"msgh-{account.account_id.rpartition('-')[2]}"
        n_messages = max(2, int(rng.expovariate(
            1.0 / self._config.mean_history_messages)))
        obs.observe("population.build.history_messages", n_messages)
        for index in range(n_messages):
            sent_at = rng.randrange(history_span)
            kind, keywords = _sample_history_kind(rng, user)
            if rng.random() < 0.45:
                correspondent_address = rng.choice(external_pool)
            else:
                correspondent_address = rng.choice(contacts).address
            incoming = rng.random() < 0.6
            sender = correspondent_address if incoming else account.address
            recipient = account.address if incoming else correspondent_address
            message = EmailMessage(
                message_id=f"{id_stem}-{index:04d}",
                sender=sender,
                recipients=(recipient,),
                subject=rng.choice(_ORGANIC_SUBJECTS) if kind is MessageKind.ORGANIC
                else f"re: {keywords[0]}",
                sent_at=sent_at,
                kind=kind,
                keywords=keywords,
                language=user.language,
                starred=rng.random() < 0.08,
                read=True,
            )
            mailbox.deliver(
                message, folder=Folder.INBOX if incoming else Folder.SENT,
            )


def _sample_history_kind(rng: random.Random, user: User):
    """Pick a message kind (and its searchable keywords) for history."""
    traits = user.traits
    roll = rng.random()
    if traits.has_financial_threads and roll < 0.35:
        pool = _FINANCIAL_KEYWORDS_BY_LANGUAGE.get(
            user.language, _FINANCIAL_KEYWORDS_BY_LANGUAGE["en"])
        keywords = tuple(rng.sample(pool, k=min(3, len(pool))))
        return MessageKind.FINANCIAL, keywords
    if traits.has_stored_credentials and roll < 0.43:
        return MessageKind.CREDENTIAL, tuple(rng.sample(_CREDENTIAL_KEYWORDS, k=2))
    if traits.has_personal_media and roll < 0.52:
        return MessageKind.PERSONAL_MEDIA, tuple(rng.sample(_MEDIA_KEYWORDS, k=2))
    return MessageKind.ORGANIC, ()
