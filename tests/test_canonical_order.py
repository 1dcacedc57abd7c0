"""Every miner's output, and `canonical_key`, order item-sets exactly as
their rendered labels do.

Item ids run in descending label order, so the miners read their levels
out in mask order, and sort on `canonical_key`, `(cardinality, rendered
labels)`, only when some label is empty or holds a character at or below
U+0020. These properties compare that order, `labels_of`, which walks the
set bits, and `render`, with a naive rendering over label pools built
around the edge cases: control characters, labels that are prefixes of
others, labels holding a space, and non-ASCII labels. Universes run past 8
and 16 items, where the text join's per-byte tables, the only lookup
tables here, change byte.
"""

from __future__ import annotations

import contextlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rareminer.apriori as apriori
import rareminer.cli as cli
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
# no character at or below U+0020, so its databases keep the mask order; a
# space inside a label, a control character or an empty label needs the sort.
POOLS = (
    ("ab!é", tuple(lab for lab in EDGE_LABELS if lab and min(lab) > " ")),
    ("a! ", tuple(lab for lab in EDGE_LABELS if lab and min(lab) >= " ")),
    ("ab!\x01\x1f é", EDGE_LABELS),
)
# Miners whose output can reach 2^width item-sets run on smaller universes.
LATTICE_WIDTH = 10


def naive_labels(db, itemset):
    return tuple(sorted(db.labels[i] for i in range(db.width) if itemset.mask >> i & 1))


def naive_key(db, itemset):
    return (itemset.cardinality, " ".join(naive_labels(db, itemset)))


def assert_key_order(db, itemsets):
    shuffled = list(itemsets)
    random.Random(len(shuffled)).shuffle(shuffled)
    assert sorted(shuffled, key=lambda s: canonical_key(s.mask, db)) == sorted(
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
def test_results_and_keys_sort_like_rendered_labels(db, data):
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
        assert db.labels_of(mask) == naive_labels(db, itemset)
        assert db.render(itemset) == " ".join(naive_labels(db, itemset))


def test_fallback_key_compares_the_labels_without_a_trailing_space():
    # "a" sorts before "a\x01", but "a " after "a\x01 ": a key holding the
    # joining space after the last label would swap each pair below.
    db = database_from_transactions([["!", "a"], ["!", "a\x01"]])
    wanted = [["a"], ["a\x01"], ["!", "a"], ["!", "a\x01"]]
    masks = [db.itemset_from_labels(labels).mask for labels in reversed(wanted)]
    ordered = sorted(masks, key=lambda mask: canonical_key(mask, db))
    assert [list(db.labels_of(mask)) for mask in ordered] == wanted


@pytest.mark.parametrize(
    "labels, sorts", [(("a", "a1", "b"), False), (("a", "a\x01", "b"), True)], ids=["masks", "fallback"]
)
def test_miners_sort_on_a_key_only_when_labels_rule_out_mask_order(monkeypatch, tmp_path, labels, sorts):
    # The rare and frequent results hold "a b" and "a1 b" (or "a\x01 b").
    # Mask order puts "a b" first: right beside "a1 b", wrong beside "a\x01 b".
    a, second, b = labels
    keyed = []

    def counting_key(mask, db):
        keyed.append(mask)
        return canonical_key(mask, db)

    monkeypatch.setattr(rare, "canonical_key", counting_key)
    monkeypatch.setattr(apriori, "canonical_key", counting_key)
    db = database_from_transactions([[a, b], [second, b]])
    mined = [mine_rare(db, MiningConfig(2, emit=emit)) for emit in (EMIT_RARE, EMIT_NONPRESENT, EMIT_BOTH)]
    mined.append(mine_frequent(db, 1))
    for results in mined:
        assert results == sorted(results, key=lambda r: naive_key(db, r.itemset))
    assert len(keyed) == (sum(map(len, mined)) if sorts else 0)
    # CLI `classify` reads the referee's dump out through the same path.
    keyed.clear()
    path = tmp_path / "db.txt"
    path.write_text(f"{a} {b}\n{second} {b}\n", encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["classify", "--input", str(path), "--max-support", "2"]) == 0
    heads = [line[:line.rindex(" : ")] for line in out.getvalue().splitlines()]
    assert len(heads) == 7
    assert heads == sorted(heads, key=lambda head: (len(head.split(" ")), head))
    assert len(keyed) == (len(heads) if sorts else 0)
