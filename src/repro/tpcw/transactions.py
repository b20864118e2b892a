"""The 14 TPC-W transaction types (Table 3 of the paper).

Each transaction corresponds to the delivery of one complete web page: the
front (web + application) server builds the page and issues one or two
database queries.  The per-type service demands below are *calibrated*, not
measured: the paper's absolute timings depend on its Pentium-D testbed, which
we do not have.  They are chosen so that the per-mix aggregate demands
reproduce the qualitative behaviour of the paper's Figure 4 (browsing
saturates first and loads the database most; ordering saturates last and is
front-dominated), see DESIGN.md for the calibration targets.

The ``contention_sensitive`` flag marks the transactions whose database
queries compete for the shared resource identified in Section 3.3 of the
paper (Best Seller and Home): during a contention episode their database
demand is inflated, which is what produces service burstiness and the
bottleneck switch in browsing-heavy mixes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "TransactionClass",
    "TransactionType",
    "TRANSACTION_CATALOG",
    "browsing_transactions",
    "ordering_transactions",
]


class TransactionClass(enum.Enum):
    """TPC-W groups its 14 transactions into two coarse classes."""

    BROWSING = "browsing"
    ORDERING = "ordering"


@dataclass(frozen=True)
class TransactionType:
    """Static description of one TPC-W transaction type.

    Attributes
    ----------
    name:
        Canonical TPC-W name.
    transaction_class:
        Whether the transaction belongs to the browsing or the ordering class.
    front_demand:
        Mean CPU demand at the front (web + application) server, in seconds.
    db_demand:
        Mean total CPU demand at the database server (summed over the
        transaction's outbound queries), in seconds.
    max_db_calls:
        Maximum number of outbound database queries issued per request
        (the Home transaction issues one or two, Best Seller always two, ...).
    contention_db_factor:
        Multiplier applied to the database demand of this transaction while a
        contention episode is in progress (1.0 = unaffected).
    contention_front_factor:
        Multiplier applied to the front-server demand during a contention
        episode (1.0 = unaffected).
    """

    name: str
    transaction_class: TransactionClass
    front_demand: float
    db_demand: float
    max_db_calls: int
    contention_db_factor: float = 1.0
    contention_front_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.front_demand <= 0 or self.db_demand < 0:
            raise ValueError("demands must be positive (front) / non-negative (db)")
        if self.max_db_calls < 0:
            raise ValueError("max_db_calls must be non-negative")
        if self.contention_db_factor < 1.0 or self.contention_front_factor < 1.0:
            raise ValueError("contention factors must be >= 1")

    @property
    def contention_sensitive(self) -> bool:
        """Whether the transaction is affected by contention episodes."""
        return self.contention_db_factor > 1.0 or self.contention_front_factor > 1.0


def _catalog() -> dict[str, TransactionType]:
    browsing = TransactionClass.BROWSING
    ordering = TransactionClass.ORDERING
    types = [
        # name, class, front demand [s], db demand [s], max db calls,
        # contention db factor, contention front factor
        TransactionType("Home", browsing, 0.0052, 0.0010, 2, 2.0, 1.3),
        TransactionType("New Products", browsing, 0.0054, 0.0065, 2),
        TransactionType("Best Sellers", browsing, 0.0054, 0.0105, 2, 4.0, 1.3),
        TransactionType("Product Detail", browsing, 0.0050, 0.0008, 1),
        TransactionType("Search Request", browsing, 0.0058, 0.0006, 1),
        TransactionType("Execute Search", browsing, 0.0058, 0.0012, 2),
        TransactionType("Shopping Cart", ordering, 0.0055, 0.0008, 1),
        TransactionType("Customer Registration", ordering, 0.0025, 0.0004, 1),
        TransactionType("Buy Request", ordering, 0.0028, 0.0007, 1),
        TransactionType("Buy Confirm", ordering, 0.0032, 0.0010, 2),
        TransactionType("Order Inquiry", ordering, 0.0020, 0.0006, 1),
        TransactionType("Order Display", ordering, 0.0024, 0.0007, 1),
        TransactionType("Admin Request", ordering, 0.0022, 0.0006, 1),
        TransactionType("Admin Confirm", ordering, 0.0026, 0.0012, 2),
    ]
    return {t.name: t for t in types}


#: The full TPC-W transaction catalogue, keyed by transaction name.
TRANSACTION_CATALOG: dict[str, TransactionType] = _catalog()


def browsing_transactions() -> list[str]:
    """Names of the browsing-class transactions (Table 3, left column)."""
    return [
        t.name
        for t in TRANSACTION_CATALOG.values()
        if t.transaction_class is TransactionClass.BROWSING
    ]


def ordering_transactions() -> list[str]:
    """Names of the ordering-class transactions (Table 3, right column)."""
    return [
        t.name
        for t in TRANSACTION_CATALOG.values()
        if t.transaction_class is TransactionClass.ORDERING
    ]
