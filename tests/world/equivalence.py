"""Bit-level world fingerprints for the lazy-history determinism contract.

The population builder promises that deferring mailbox history (and the
external victim pool) changes *when* state is paid for, never *what* it
is.  These fingerprints make that promise checkable: they digest every
observable fact of a world — message content and placement, contact
lists, account credentials/recovery, external victims — into a single
hex string.  The differential tests compare a world left lazy against
the same world put through :func:`materialize_histories` right after
its build; any drift is a determinism bug, not noise.

Fingerprinting a lazy world materializes it (digesting a mailbox reads
it), so always fingerprint *after* the measured build.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.world.accounts import Account
from repro.world.mailbox import Mailbox
from repro.world.population import Population


def history_pending(mailbox: Mailbox) -> bool:
    """Is the mailbox's deferred history seeder still waiting to run?"""
    return mailbox._seeder is not None


def materialize_histories(population: Population) -> Population:
    """Touch every mailbox in account-id order, seeding all history now."""
    for account_id in sorted(population.accounts):
        len(population.accounts[account_id].mailbox)
    return population


def _update(digest, *parts: object) -> None:
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")


def mailbox_fingerprint(mailbox: Mailbox) -> str:
    """Digest of message content + placement + filters, in arrival order."""
    digest = hashlib.sha256()
    for message in mailbox.messages(include_deleted=True):
        _update(
            digest,
            message.message_id, str(message.sender),
            tuple(str(r) for r in message.recipients),
            message.subject, message.sent_at, message.body,
            message.kind.value, message.keywords,
            None if message.reply_to is None else str(message.reply_to),
            message.contains_url, message.language,
            message.folder.value, message.starred, message.read,
            message.deleted,
        )
    for mail_filter in mailbox.filters:
        _update(digest, mail_filter.filter_id, mail_filter.created_at,
                mail_filter.created_by_hijacker,
                mail_filter.match_sender_domain,
                None if mail_filter.forward_to is None
                else str(mail_filter.forward_to),
                None if mail_filter.move_to is None
                else mail_filter.move_to.value)
    return digest.hexdigest()


def account_fingerprint(account: Account) -> str:
    """Digest of one account: identity, credentials, recovery, mailbox."""
    digest = hashlib.sha256()
    user = account.owner
    _update(
        digest,
        account.account_id, str(account.address), account.password,
        account.state.value, account.two_factor_phone,
        user.user_id, user.name, user.country, user.language,
        user.activity.value, user.gullibility,
        user.traits.has_financial_threads, user.traits.has_stored_credentials,
        user.traits.has_personal_media, user.traits.has_signature_images,
        account.recovery.phone,
        None if account.recovery.secondary_email is None
        else str(account.recovery.secondary_email),
        account.recovery.secondary_email_recycled,
        account.recovery.has_secret_question,
        mailbox_fingerprint(account.mailbox),
    )
    return digest.hexdigest()


def population_fingerprint(population: Population,
                           external_sample: Iterable[int] = ()) -> str:
    """Digest of the whole world (accounts, contacts, sampled externals).

    ``external_sample`` names external-victim indices to include; the
    full pool is intentionally not walked by default so fingerprinting a
    world with a large streamed pool stays cheap.
    """
    digest = hashlib.sha256()
    for account_id in sorted(population.accounts):
        account = population.accounts[account_id]
        _update(digest, account_id, account_fingerprint(account))
        _update(digest, [contact.owner.user_id for contact
                         in population.contacts_of_account(account)])
    externals = population.external_victims
    for index in external_sample:
        victim = externals[index]
        _update(digest, index, str(victim.address),
                victim.spam_filter_strength, victim.gullibility)
    return digest.hexdigest()
