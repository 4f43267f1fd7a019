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
  stream is consumed exactly once (a 64-bit master draw); the one
  :class:`HistorySeeder` every mailbox shares materializes an account's
  history from a private ``random.Random(child_seed)``, derived from
  ``(master, account_id)`` at that moment, the first time anything
  reads the mailbox; mail delivered before that is queued and filed
  after the history (see :mod:`repro.world.mailbox`), so receiving mail
  costs no history.  The derivation is order-independent, so a world is
  **bit-identical** to the same world with every mailbox touched right
  after the build (``tests/world/equivalence.py`` fingerprints both),
  no matter which mailboxes get touched, in what order, or never.
* **Streamed external victims.**  The external pool is a lazy sequence:
  victim *i* is derived from ``(external master, i)`` on first index.
  Campaign targeting samples *indices* (``rng.sample(range(n), k)``)
  and indexes the pool, so a campaign materializes only the victims it
  picks.  (``rng.sample(pool, k)`` would not: CPython copies a Sequence
  population with ``list()`` whenever k is large against it.)
* **Array-backed contact graph** — two flat int arrays (CSR offsets
  and neighbours) keyed by account position, built without a per-node
  list and with no user-id index, 2.2 MB traced for 60,000 users; see
  :mod:`repro.world.contacts`.
* **Untouched accounts hold their identity only**: address, account
  id, password, position and a row of the population's
  :class:`OwnerProfiles` columns.  Such an account holds no
  :class:`User` and no :class:`RecoveryOptions` (the first ``owner``
  or ``recovery`` read builds them from the row) and no
  :class:`Mailbox`, only the one :class:`HistorySeeder` every account
  shares (the first ``mailbox`` read builds the mailbox).  A built
  user's display name derives from the address when read, and its id
  from the position; notes are the shared ``()``, traits one of 16
  shared :class:`~repro.world.users.MailboxTraits`.  The population
  keeps no user dict, and the usernames the build must not reissue
  are the keys of :attr:`Population.account_by_username`.  A
  3,000-user build traces 517–573 live bytes per account on CPython
  3.10–3.13.
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
from array import array
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Union)

from repro import obs
from repro.net import domains
from repro.net.email_addr import EmailAddress, generate_address, generate_username
from repro.net.phones import PhoneNumber, PhoneNumberPlan
from repro.util.clock import DAY
from repro.util.compat import SLOT_KWARGS
from repro.util.ids import IdMinter, format_id
from repro.util.rng import RngRegistry, child_seed
from repro.world.accounts import Account, RecoveryOptions
from repro.world.contacts import ContactGraph, build_small_world
from repro.world.mailbox import Mailbox
from repro.world.messages import EmailMessage, Folder, MessageKind
from repro.world.users import (
    ACTIVITY_LEVELS,
    HOME_COUNTRIES,
    TRAITS,
    User,
    language_of_country,
    sample_activity_code,
    sample_gullibility,
    sample_home_country_code,
    sample_traits_code,
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


#: :class:`OwnerProfiles` flag bits.
_HAS_PHONE = 1
_HAS_SECONDARY = 2
_SECONDARY_RECYCLED = 4

_OTHER_PROVIDER_CODE = {domain: code
                        for code, domain in enumerate(domains.OTHER_PROVIDERS)}


class OwnerProfiles:
    """Every built account's owner profile and recovery options, as
    columns indexed by the account's position.

    A built account holds this object in place of its :class:`User` and
    :class:`RecoveryOptions`; the first read of ``account.owner`` or
    ``account.recovery`` builds the object from the account's row, equal
    field for field to what the builder made before the columns.  A row
    costs a byte each for country, activity, traits and the recovery
    flags, the gullibility double, and a reference each to the phone's
    E.164 string (the phone plan holds the string) and the secondary
    address's username (one of the shared bare usernames).  User ids are
    not stored: the build reserves a block of minted numbers, and an id
    is formatted when its user is built.

    Bulk readers (the D9 cohorts, campaign targeting) read the columns
    directly.  Nothing writes a built user's profile fields, so the
    columns and the built objects stay equal.
    """

    __slots__ = ("first_user", "user_width", "countries", "activities",
                 "traits", "gullibility", "flags", "phones",
                 "secondary_usernames", "secondary_domains")

    def __init__(self, first_user: int, user_width: int):
        #: The user id of position ``p`` is number ``first_user + p``.
        self.first_user = first_user
        self.user_width = user_width
        #: Codes into :data:`HOME_COUNTRIES`, :data:`ACTIVITY_LEVELS` and
        #: :data:`TRAITS`.
        self.countries = bytearray()
        self.activities = bytearray()
        self.traits = bytearray()
        self.gullibility = array("d")
        #: ``_HAS_PHONE | _HAS_SECONDARY | _SECONDARY_RECYCLED`` bits.
        self.flags = bytearray()
        #: E.164 string or ``None``.
        self.phones: List[Optional[str]] = []
        #: Username or ``None``; the domain is a code into
        #: ``domains.OTHER_PROVIDERS`` (0 without a secondary address).
        self.secondary_usernames: List[Optional[str]] = []
        self.secondary_domains = bytearray()

    def __len__(self) -> int:
        return len(self.flags)

    def owner_of(self, account: Account) -> User:
        """The owner of the built account, as the builder made it."""
        position = account.position
        country = HOME_COUNTRIES[self.countries[position]]
        flags = self.flags[position]
        return User(
            user_id=format_id("user", self.first_user + position,
                              self.user_width),
            name=account.address,
            country=country,
            language=language_of_country(country),
            activity=ACTIVITY_LEVELS[self.activities[position]],
            gullibility=self.gullibility[position],
            traits=TRAITS[self.traits[position]],
            has_phone_on_file=bool(flags & _HAS_PHONE),
            has_secondary_email=bool(flags & _HAS_SECONDARY),
            secondary_email_recycled=bool(flags & _SECONDARY_RECYCLED),
        )

    def recovery_of(self, account: Account) -> RecoveryOptions:
        """The recovery options of the built account, as the builder made
        them."""
        position = account.position
        phone = self.phones[position]
        username = self.secondary_usernames[position]
        return RecoveryOptions(
            phone=None if phone is None else PhoneNumber(phone),
            secondary_email=None if username is None else EmailAddress(
                username,
                domains.OTHER_PROVIDERS[self.secondary_domains[position]]),
            secondary_email_recycled=bool(
                self.flags[position] & _SECONDARY_RECYCLED),
        )


@dataclass
class Population:
    """Everything :mod:`repro.core.simulation` operates on.

    Every account has a *position*, its creation order: ``accounts``
    iterates in it, :attr:`by_position` indexes by it, and it keys the
    contact graph and the built accounts' :class:`OwnerProfiles` rows.
    Add an account after the build with :meth:`add_account`.
    """

    accounts: Dict[str, Account]
    #: Every account, at its position.
    by_position: List[Account]
    #: Every account by its address's username: all of them are on the
    #: provider's domain.  The build tests a new username against this
    #: dict, so it keeps no separate set of the usernames taken.
    account_by_username: Dict[str, Account]
    contact_graph: ContactGraph
    external_victims: Sequence[ExternalVictim]
    profiles: OwnerProfiles

    def add_account(self, account: Account) -> None:
        """Add an account (with its own owner and recovery options) as an
        isolated node of the contact graph, at the next position."""
        username = account.address.username
        if (account.address.domain != domains.PRIMARY_PROVIDER
                or username in self.account_by_username):
            raise ValueError(f"cannot add {account.address}")
        account.position = self.contact_graph.add_user()
        if account.position != len(self.by_position):
            raise ValueError("contact graph and accounts out of step")
        self.by_position.append(account)
        self.accounts[account.account_id] = account
        self.account_by_username[username] = account

    def lookup_address(self, address: EmailAddress) -> Optional[Account]:
        if address.domain != domains.PRIMARY_PROVIDER:
            return None
        return self.account_by_username.get(address.username)

    def contacts_of_account(self, account: Account) -> List[Account]:
        """The account's contacts, in position order."""
        by_position = self.by_position
        return [by_position[position] for position
                in self.contact_graph.contacts_of(account.position)]

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

    n_users = config.n_users
    profiles = OwnerProfiles(minter.reserve("user", n_users), minter.width)
    countries = profiles.countries.append
    activities = profiles.activities.append
    traits = profiles.traits.append
    gullibility = profiles.gullibility.append
    flags = profiles.flags.append
    phones = profiles.phones.append
    secondary_usernames = profiles.secondary_usernames.append
    secondary_domains = profiles.secondary_domains.append
    accounts: Dict[str, Account] = {}
    by_position: List[Account] = []
    account_by_username: Dict[str, Account] = {}
    seeder = HistorySeeder(config, history_master)
    draw = user_rng.random
    phone_rate = config.phone_on_file_rate
    secondary_rate = config.secondary_email_rate
    recycled_rate = config.recycled_secondary_rate
    two_factor_rate = config.owner_two_factor_adoption

    with obs.trace("population.build", n_users=n_users):
        # The graph needs only ``n`` and its own stream, so it is built
        # first, while its transient arrays are small against the world.
        with obs.trace("population.build.graph", n_users=n_users):
            contact_graph = build_small_world(
                n_users, graph_rng, mean_degree=config.mean_contacts,
            )

        with obs.trace("population.build.users"):
            for position in range(n_users):
                country_code = sample_home_country_code(user_rng)
                address = generate_address(user_rng, domains.PRIMARY_PROVIDER,
                                           account_by_username)
                countries(country_code)
                activities(sample_activity_code(user_rng))
                gullibility(sample_gullibility(user_rng))
                traits(sample_traits_code(user_rng))
                has_phone = draw() < phone_rate
                row_flags = _HAS_PHONE if has_phone else 0
                if draw() < secondary_rate:
                    row_flags |= _HAS_SECONDARY
                    if draw() < recycled_rate:
                        row_flags |= _SECONDARY_RECYCLED
                flags(row_flags)
                phone = (phone_plan.mint(HOME_COUNTRIES[country_code])
                         if has_phone else None)
                phones(phone)
                if row_flags & _HAS_SECONDARY:
                    domain = user_rng.choice(domains.OTHER_PROVIDERS)
                    # With nothing taken, the first (bare) username wins.
                    secondary_usernames(generate_username(user_rng))
                    secondary_domains(_OTHER_PROVIDER_CODE[domain])
                else:
                    secondary_usernames(None)
                    secondary_domains(0)
                account = Account(
                    account_id=minter.mint("acct"),
                    owner=profiles,
                    address=address,
                    password=generate_password(user_rng),
                    recovery=profiles,
                    mailbox=seeder,
                    position=position,
                )
                if phone is not None and draw() < two_factor_rate:
                    account.enable_two_factor(PhoneNumber(phone),
                                              by_hijacker=False, now=0)
                by_position.append(account)
                accounts[account.account_id] = account
                account_by_username[address.username] = account

        population = Population(
            accounts=accounts,
            contact_graph=contact_graph,
            external_victims=ExternalVictimPool(
                external_master,
                n_edu=config.n_external_edu,
                n_other=config.n_external_other,
            ),
            profiles=profiles,
            by_position=by_position,
            account_by_username=account_by_username,
        )
        seeder.population = population

        with obs.trace("population.build.gc"):
            gc.collect(1)
    return population


class HistorySeeder:
    """The deferred seeder of a population's pre-simulation histories.

    History is what the hijacker's profiling phase searches: organic
    threads with graph contacts *and* external correspondents (friends
    at other providers, lists, colleagues).  The externals matter for
    Section 5.3's fan-out numbers — a hijacker blasting "the contact
    list" reaches every correspondent, not just provider users.

    One instance serves every mailbox of the population and finds the
    account from ``mailbox.owner``.  All randomness comes from a private
    ``random.Random(child_seed(master, account_id))``, derived when the
    seeder runs rather than stored per account, and all
    message ids from a per-account namespace, so running this at build
    time, mid-simulation, or never produces the same world.  A class
    (not a closure) so a world with pending mailboxes still pickles
    (``tests/world/test_lazy_population.py``), though no runner ships
    worlds across processes any more.
    """

    __slots__ = ("population", "_config", "_master")

    def __init__(self, config: SimulationConfig, master: int):
        #: Set by the builder once the population exists.
        self.population: Optional[Population] = None
        self._config = config
        self._master = master

    def __call__(self, mailbox: Mailbox) -> None:
        account = self.population.lookup_address(mailbox.owner)
        rng = random.Random(child_seed(self._master, account.account_id))
        user = account.owner
        contacts = self.population.contacts_of_account(account)
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
