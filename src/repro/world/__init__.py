"""World substrate: the simulated mail provider's user population.

Users own accounts; accounts have credentials, recovery options, and a
mailbox; a contact graph connects users.  Everything the hijacking
lifecycle touches — searchable mail history, recovery phone numbers,
contact lists worth scamming — lives here.
"""

from repro.world.users import User, ActivityLevel
from repro.world.accounts import Account, AccountState, Credential, RecoveryOptions
from repro.world.messages import EmailMessage, MessageKind, Folder
from repro.world.mailbox import Mailbox, MailFilter
from repro.world.contacts import ContactGraph
from repro.world.population import Population, build_population

__all__ = [
    "User",
    "ActivityLevel",
    "Account",
    "AccountState",
    "Credential",
    "RecoveryOptions",
    "EmailMessage",
    "MessageKind",
    "Folder",
    "Mailbox",
    "MailFilter",
    "ContactGraph",
    "Population",
    "build_population",
]
