"""Shared fixtures and helpers: the worked 5x5 database and its hand-checked
supports, a seeded random-database generator, and a label-set support scan
that is independent of the package's bit-vector fast path."""

from __future__ import annotations

import importlib
import pkgutil
import random
from typing import Iterable

import pytest

import rareminer
from rareminer import (
    ItemSet,
    MinedItemSet,
    TransactionDatabase,
    database_from_transactions,
    parse_database,
)

WORKED_DB_TEXT = "a b c d\nb d\na b c e\nc d e\na b c\n"

# Exact support of every non-empty item-set of the worked database,
# verified by hand against the five transactions.
WORKED_DB_SUPPORTS = {
    "a": 3, "b": 4, "c": 4, "d": 3, "e": 2,
    "a b": 3, "a c": 3, "a d": 1, "a e": 1, "b c": 3,
    "b d": 2, "b e": 1, "c d": 2, "c e": 2, "d e": 1,
    "a b c": 3, "a b d": 1, "a b e": 1, "a c d": 1, "a c e": 1,
    "a d e": 0, "b c d": 1, "b c e": 1, "b d e": 0, "c d e": 1,
    "a b c d": 1, "a b c e": 1, "a b d e": 0, "a c d e": 0, "b c d e": 0,
    "a b c d e": 0,
}

CORPUS_LABELS = tuple("abcdefghij")


@pytest.fixture
def worked_db() -> TransactionDatabase:
    return parse_database(WORKED_DB_TEXT)


def naive_label_support(rows: list[set[str]], wanted: Iterable[str]) -> int:
    """Support by plain set inclusion over label sets; no bit-vectors involved."""
    wanted = set(wanted)
    return sum(1 for row in rows if wanted <= row)


def label_rows(db: TransactionDatabase) -> list[set[str]]:
    """Each row's member labels, read off the row's bits."""
    return [{label for i, label in enumerate(db.labels) if row >> i & 1} for row in db.rows]


def random_database(
    rng: random.Random, *, max_width: int = 10, max_rows: int = 30
) -> TransactionDatabase:
    """A database with a forced universe, random size and random density."""
    width = rng.randint(1, max_width)
    universe = CORPUS_LABELS[:width]
    n_rows = rng.randint(0, max_rows)
    density = rng.uniform(0.1, 0.9)
    rows = []
    for _ in range(n_rows):
        row = [label for label in universe if rng.random() < density]
        if not row:
            row = [rng.choice(universe)]
        rows.append(row)
    return database_from_transactions(rows, universe=universe)


def counting_item_ands(db: TransactionDatabase) -> list[int]:
    """The ANDs taken with an item's tid-list of `db` from now on, one entry each.

    `db`'s support index is built, and each entry swapped for an int
    subclass that records every AND it takes part in; Apriori counts a
    candidate as one such AND.
    """
    ands: list[int] = []

    class CountedTid(int):
        def __and__(self, other):
            ands.append(self)
            return int.__and__(self, other)

        __rand__ = __and__

    vars(db)["_tables"] = [[CountedTid(tid) for tid in table] for table in db._support_index()]
    return ands


def mined_as_dict(results, db: TransactionDatabase) -> dict[str, tuple[int, str]]:
    """{rendered labels: (support, class tag)} for easy whole-result compares."""
    out = {}
    for r in results:
        out[db.render(r.itemset)] = (r.support, r.classification.tag)
    assert len(out) == len(results), "duplicate item-sets in a result"
    return out


def counting_builds(monkeypatch: pytest.MonkeyPatch) -> dict[type, list[int]]:
    """The mask of every `ItemSet` and `MinedItemSet` built from now on:
    `{ItemSet: masks, MinedItemSet: masks}`, in build order.

    Counts the constructors' calls and the objects that the bulk builder
    `itemsets._bulk` returns, replaced in every module that binds it, as
    each caller looks it up there. A `MinedItemSet` it builds counts its
    `ItemSet` too.
    """
    built: dict[type, list[int]] = {ItemSet: [], MinedItemSet: []}
    item_init, mined_init = ItemSet.__init__, MinedItemSet.__init__

    def counted_item_init(self, mask, width):
        built[ItemSet].append(mask)
        item_init(self, mask, width)

    def counted_mined_init(self, itemset, support, classification):
        built[MinedItemSet].append(itemset.mask)
        mined_init(self, itemset, support, classification)

    def counted(bulk):
        def counted_bulk(*args):
            made = bulk(*args)
            for obj in made:
                if isinstance(obj, MinedItemSet):
                    built[MinedItemSet].append(obj.itemset.mask)
                    obj = obj.itemset
                built[ItemSet].append(obj.mask)
            return made
        return counted_bulk

    monkeypatch.setattr(ItemSet, "__init__", counted_item_init)
    monkeypatch.setattr(MinedItemSet, "__init__", counted_mined_init)
    for info in pkgutil.iter_modules(rareminer.__path__):
        module = importlib.import_module(f"rareminer.{info.name}")
        if "_bulk" in vars(module):
            monkeypatch.setattr(module, "_bulk", counted(module._bulk))
    return built
