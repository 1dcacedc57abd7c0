"""The int sort key orders every result exactly as its rendered labels do.

Item ids run in descending label order, so `canonical_key` is one int made
from the mask, falling back to `(cardinality, rendered labels)` when some
label is empty or holds a character at or below U+0020. These properties
compare it, and the table-driven `labels_of`, with a naive rendering over
label pools built around the edge cases: control characters, labels that
are prefixes of others, labels holding a space, and non-ASCII labels.
Universes run past 8 and 16 items, where the lookup tables change byte.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rareminer.apriori as apriori
import rareminer.rare as rare
from rareminer import (
    EMIT_BOTH,
    EMIT_NONPRESENT,
    EMIT_RARE,
    ItemSet,
    MiningConfig,
    classify_all,
    database_from_transactions,
    mine_frequent,
    mine_rare,
)
from rareminer.itemsets import canonical_key

EDGE_LABELS = (
    " ", "\x01", "\x1f", "!", "", "a", "a!", "ab", "a\x01", "a b", "b a",
    "i1", "i10", "i1-", "i1_", "é", "éa", "z", "Ω", "a ",
)
# Short labels over small alphabets often share prefixes. The first pool has
# no character at or below U+0020, so its databases get the int key; a space
# inside a label, a control character or an empty label needs the fallback.
POOLS = (
    ("ab!é", tuple(lab for lab in EDGE_LABELS if lab and min(lab) > " ")),
    ("a! ", tuple(lab for lab in EDGE_LABELS if lab and min(lab) >= " ")),
    ("ab!\x01\x1f é", EDGE_LABELS),
)
# Miners whose output can reach 2^width item-sets run on smaller universes.
LATTICE_WIDTH = 10


def naive_labels(db, itemset):
    return tuple(sorted(db.labels[i] for i in itemset.item_ids()))


def naive_key(db, itemset):
    return (itemset.cardinality, " ".join(naive_labels(db, itemset)))


def assert_key_order(db, itemsets):
    shuffled = list(itemsets)
    random.Random(len(shuffled)).shuffle(shuffled)
    assert sorted(shuffled, key=lambda s: canonical_key(s, db)) == sorted(
        shuffled, key=lambda s: naive_key(db, s)
    )


@st.composite
def databases(draw):
    alphabet, edge = draw(st.sampled_from(POOLS))
    pool = st.sampled_from(edge) | st.text(alphabet, min_size=1, max_size=3)
    labels = draw(st.lists(pool, min_size=1, max_size=20, unique=True))
    rows = draw(st.lists(
        st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True), max_size=10
    ))
    return database_from_transactions(rows, universe=labels)


@settings(deadline=None, max_examples=200)
@given(databases(), st.data())
def test_int_key_sorts_like_rendered_labels(db, data):
    sigma = data.draw(st.integers(1, len(db) + 1))
    emits = [EMIT_RARE] + ([EMIT_NONPRESENT, EMIT_BOTH] if db.width <= LATTICE_WIDTH else [])
    mined = [mine_rare(db, MiningConfig(sigma, emit=emit)) for emit in emits]
    mined.append(mine_frequent(db, sigma))
    for results in mined:
        assert results == sorted(results, key=lambda r: naive_key(db, r.itemset))
        assert_key_order(db, [r.itemset for r in results])
    if db.width <= LATTICE_WIDTH:
        assert_key_order(db, [e.itemset for e in classify_all(db, sigma)])
    masks = data.draw(st.lists(st.integers(0, (1 << db.width) - 1), max_size=60))
    assert_key_order(db, [ItemSet(mask, db.width) for mask in masks])


@settings(deadline=None, max_examples=200)
@given(databases(), st.data())
def test_labels_of_is_the_sorted_member_labels(db, data):
    masks = data.draw(st.lists(st.integers(0, (1 << db.width) - 1), min_size=1, max_size=60))
    masks.append((1 << db.width) - 1)
    for mask in masks:
        itemset = ItemSet(mask, db.width)
        assert db.labels_of(itemset) == naive_labels(db, itemset)
        assert db.render(itemset) == " ".join(naive_labels(db, itemset))


@pytest.mark.parametrize(
    "labels, sorts", [(("a", "a1", "b"), False), (("a", "a\x01", "b"), True)], ids=["masks", "fallback"]
)
def test_miners_sort_on_a_key_only_when_labels_rule_out_mask_order(monkeypatch, labels, sorts):
    # The rare and frequent results hold "a b" and "a1 b" (or "a\x01 b").
    # Mask order puts "a b" first: right beside "a1 b", wrong beside "a\x01 b".
    a, second, b = labels
    keyed = []

    def counting_key(itemset, db):
        keyed.append(itemset)
        return canonical_key(itemset, db)

    monkeypatch.setattr(rare, "canonical_key", counting_key)
    monkeypatch.setattr(apriori, "canonical_key", counting_key)
    db = database_from_transactions([[a, b], [second, b]])
    mined = [mine_rare(db, MiningConfig(2, emit=emit)) for emit in (EMIT_RARE, EMIT_NONPRESENT, EMIT_BOTH)]
    mined.append(mine_frequent(db, 1))
    for results in mined:
        assert results == sorted(results, key=lambda r: naive_key(db, r.itemset))
    assert len(keyed) == (sum(map(len, mined)) if sorts else 0)
