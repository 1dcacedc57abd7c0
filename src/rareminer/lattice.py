"""Exhaustive classification of the full item-set lattice.

Enumerates every non-empty subset of the item universe with an exact
support count and a three-way class. This is the ground truth the miners
are checked against: deliberately simple, capped to small universes, and
built to be obviously correct rather than fast.
"""

from __future__ import annotations

from .itemsets import (
    ItemSet,
    ItemUniverseError,
    MinedItemSet,
    TransactionDatabase,
    classify_support,
)

# 2^|I| subsets get enumerated; refuse anything bigger than this by default.
ORACLE_ITEM_CAP = 16


def classify_all(
    db: TransactionDatabase, sigma: int, *, max_items: int = ORACLE_ITEM_CAP
) -> list[MinedItemSet]:
    """Support and class of every non-empty item-set over the universe.

    Classes: support >= sigma is frequent, 0 < support < sigma is rare,
    support 0 is non-present. Entries come back in ascending bit-vector
    order for reproducible dumps.
    """
    if sigma < 1:
        raise ValueError(f"sigma must be at least 1, got {sigma}")
    if db.width > max_items:
        raise ItemUniverseError(
            db.width, max_items, what="item universe for exhaustive enumeration"
        )
    # The referee counts with its own scan over the transactions, never
    # with the miners' counter, so a fault there cannot hide here.
    rows = [t.items.mask for t in db.transactions]
    entries = []
    for mask in range(1, 1 << db.width):
        support = 0
        for row in rows:
            if mask & row == mask:
                support += 1
        entries.append(
            MinedItemSet(ItemSet(mask, db.width), support, classify_support(support, sigma))
        )
    return entries


def coverage(db: TransactionDatabase, *, max_items: int = ORACLE_ITEM_CAP) -> list[ItemSet]:
    """Every item-set with at least one instance in the database.

    Equals the union of the frequent and rare classes for any sigma.
    """
    return [e.itemset for e in classify_all(db, 1, max_items=max_items) if e.support >= 1]
