"""Item-set algebra, parsing and support counting."""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CORPUS_LABELS,
    WORKED_DB_SUPPORTS,
    label_rows,
    naive_label_support,
    random_database,
)
from rareminer import (
    DEFAULT_ITEM_CAP,
    ItemSet,
    ItemUniverseError,
    combinable,
    database_from_transactions,
    parse_database,
)


class TestParsing:
    def test_worked_database(self, worked_db):
        assert len(worked_db) == 5
        assert worked_db.width == 5
        assert worked_db.labels == ("a", "b", "c", "d", "e")
        rows = [set(worked_db.labels_of(t.items)) for t in worked_db.transactions]
        assert rows == [
            {"a", "b", "c", "d"},
            {"b", "d"},
            {"a", "b", "c", "e"},
            {"c", "d", "e"},
            {"a", "b", "c"},
        ]

    def test_empty_text(self):
        db = parse_database("")
        assert len(db) == 0
        assert db.width == 0

    def test_duplicate_tokens_collapse(self):
        db = parse_database("a a b\n")
        assert len(db) == 1
        assert db.transactions[0].items.cardinality == 2
        assert db.labels == ("a", "b")

    def test_comments_and_blank_lines_skipped(self):
        db = parse_database("# header\n\na b\n   \n# tail\nb c\n")
        assert len(db) == 2
        assert db.width == 3
        # transactions keep their source line index as id
        assert [t.id for t in db.transactions] == [2, 5]

    def test_hash_must_prefix_the_line(self):
        # tokens are arbitrary non-whitespace, so an indented '#x' is an item
        db = parse_database(" #x y\n")
        assert db.labels == ("#x", "y")

    def test_numeric_fimi_tokens_parse_unchanged(self):
        db = parse_database("1 2 5\n2 5\n")
        assert db.labels == ("1", "2", "5")
        assert db.support(db.itemset_from_labels(["2", "5"])) == 2

    def test_item_cap_refused_with_counts(self):
        text = " ".join(f"x{i}" for i in range(DEFAULT_ITEM_CAP + 1)) + "\n"
        with pytest.raises(ItemUniverseError) as excinfo:
            parse_database(text)
        assert excinfo.value.n_items == DEFAULT_ITEM_CAP + 1
        assert excinfo.value.cap == DEFAULT_ITEM_CAP
        assert str(DEFAULT_ITEM_CAP + 1) in str(excinfo.value)
        assert str(DEFAULT_ITEM_CAP) in str(excinfo.value)
        # overridable
        db = parse_database(text, max_items=DEFAULT_ITEM_CAP + 1)
        assert db.width == DEFAULT_ITEM_CAP + 1

    def test_first_appearance_interning(self):
        db = parse_database("z y\nx z\n")
        assert db.labels == ("z", "y", "x")
        assert db.item_id("z") == 0


class TestBuilder:
    def test_forced_universe_allows_absent_items(self):
        db = database_from_transactions([["a"]], universe=["a", "b", "c"])
        assert db.width == 3
        assert len(db) == 1
        assert db.support(db.itemset_from_labels(["b"])) == 0

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="not in the given universe"):
            database_from_transactions([["a", "q"]], universe=["a", "b"])

    def test_empty_transactions_skipped(self):
        db = database_from_transactions([["a"], [], ["b"]])
        assert len(db) == 2

    def test_duplicate_universe_labels_rejected(self):
        with pytest.raises(ValueError):
            database_from_transactions([], universe=["a", "a"])


class TestItemSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ItemSet(-1, 4)
        with pytest.raises(ValueError):
            ItemSet(1 << 4, 4)
        with pytest.raises(ValueError):
            ItemSet(0, -1)
        with pytest.raises(ValueError):
            ItemSet.from_ids([4], 4)

    def test_from_ids_and_back(self):
        s = ItemSet.from_ids([0, 2, 3], 5)
        assert s.item_ids() == (0, 2, 3)
        assert s.cardinality == 3

    def test_subset_examples(self, worked_db):
        bd = worked_db.itemset_from_labels(["b", "d"])
        abcd = worked_db.itemset_from_labels(["a", "b", "c", "d"])
        e = worked_db.itemset_from_labels(["e"])
        empty = ItemSet.empty(5)
        assert bd.is_subset_of(abcd)
        assert not e.is_subset_of(abcd)
        assert empty.is_subset_of(abcd)
        assert empty.is_subset_of(empty)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError, match="widths differ"):
            ItemSet.empty(3).is_subset_of(ItemSet.empty(4))
        with pytest.raises(ValueError, match="widths differ"):
            ItemSet.empty(3).intersect(ItemSet.empty(4))

    def test_intersect_examples(self, worked_db):
        acde = worked_db.itemset_from_labels("acde")
        bcde = worked_db.itemset_from_labels("bcde")
        abcd = worked_db.itemset_from_labels("abcd")
        abce = worked_db.itemset_from_labels("abce")
        assert worked_db.render(acde.intersect(bcde)) == "c d e"
        assert worked_db.render(abcd.intersect(abce)) == "a b c"
        assert acde.intersect(acde) == acde

    def test_combinable_examples(self, worked_db):
        acde = worked_db.itemset_from_labels("acde")
        bcde = worked_db.itemset_from_labels("bcde")
        abcd = worked_db.itemset_from_labels("abcd")
        ab = worked_db.itemset_from_labels("ab")
        cde = worked_db.itemset_from_labels("cde")
        assert combinable(acde, bcde, 3)
        assert not combinable(abcd, abcd, 3)  # intersection keeps all 4 items
        assert not combinable(ab, cde, 1)  # unequal cardinalities


@settings(deadline=None)
@given(st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1))
def test_intersect_algebra(x, y, z):
    a, b, c = (ItemSet(m, 8) for m in (x, y, z))
    assert a.intersect(b) == b.intersect(a)
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
    assert a.intersect(a) == a
    small = a.intersect(b)
    assert small.cardinality <= min(a.cardinality, b.cardinality)
    assert small.is_subset_of(a) and small.is_subset_of(b)


class TestSupport:
    def test_worked_checkpoints(self, worked_db):
        assert worked_db.support(worked_db.itemset_from_labels("bd")) == 2
        assert worked_db.support(worked_db.itemset_from_labels("abcde")) == 0
        assert worked_db.support(worked_db.itemset_from_labels("ade")) == 0
        assert worked_db.support(ItemSet.empty(5)) == len(worked_db)

    def test_every_worked_support(self, worked_db):
        for labels, expected in WORKED_DB_SUPPORTS.items():
            itemset = worked_db.itemset_from_labels(labels.split())
            assert worked_db.support(itemset) == expected, labels

    def test_width_mismatch(self, worked_db):
        with pytest.raises(ValueError):
            worked_db.support(ItemSet.empty(4))

    def test_anti_monotone_exhaustive(self, worked_db):
        # over the full 5-item lattice: f subset of g implies supp(f) >= supp(g)
        supports = {
            mask: worked_db.support_of_mask(mask) for mask in range(1 << 5)
        }
        for f in range(1 << 5):
            for g in range(1 << 5):
                if f & ~g == 0:
                    assert supports[f] >= supports[g]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**10 - 1))
    def test_fast_path_matches_label_scan(self, seed, mask):
        rng = random.Random(seed)
        db = random_database(rng)
        mask &= (1 << db.width) - 1
        itemset = ItemSet(mask, db.width)
        expected = naive_label_support(label_rows(db), db.labels_of(itemset))
        assert db.support(itemset) == expected


@st.composite
def counted_databases(draw):
    """Rows drawn from a small pool, so many repeat; up to 200 of them, so
    tid-lists span several machine words; a universe that may hold items
    no row uses; and, at zero rows, the empty database."""
    n_present = draw(st.integers(0, 6))
    universe = CORPUS_LABELS[: n_present + draw(st.integers(0, 2))]
    if not n_present:
        return database_from_transactions([], universe=universe)
    present = universe[:n_present]
    pool = draw(st.lists(st.sets(st.sampled_from(present), min_size=1), min_size=1, max_size=5))
    n_rows = draw(st.one_of(st.integers(0, 64), st.integers(65, 200)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_rows, max_size=n_rows))
    return database_from_transactions([pool[i] for i in picks], universe=universe)


@settings(deadline=None, max_examples=80)
@given(counted_databases())
def test_counter_matches_label_scan_on_every_mask(db):
    rows = label_rows(db)
    masks = range(1 << db.width)
    expected = [naive_label_support(rows, db.labels_of(ItemSet(m, db.width))) for m in masks]
    first = [db.support_of_mask(m) for m in masks]
    assert first == expected
    assert first[0] == len(db)
    # The index is cached on the database after the first count.
    assert [db.support_of_mask(m) for m in masks] == first
    assert db.support_of_mask(1 << db.width) == 0


def test_threads_racing_on_the_first_count_agree():
    rng = random.Random(20261018)
    rows = [[label for label in CORPUS_LABELS[:8] if rng.random() < 0.5] or ["a"] for _ in range(300)]
    reference = database_from_transactions(rows)
    masks = range(1 << reference.width)
    label_sets = label_rows(reference)
    expected = [naive_label_support(label_sets, reference.labels_of(ItemSet(m, reference.width)))
                for m in masks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            db = database_from_transactions(rows)
            results: list = [None] * 8

            def count(slot: int) -> None:
                results[slot] = [db.support_of_mask(m) for m in masks]

            threads = [threading.Thread(target=count, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


class TestRendering:
    def test_render_sorts_labels(self, worked_db):
        assert worked_db.render(worked_db.itemset_from_labels(["d", "b"])) == "b d"
        assert worked_db.render(ItemSet.empty(5)) == ""
        assert worked_db.render(worked_db.itemset_from_labels("ecba")) == "a b c e"

    def test_render_independent_of_interning_order(self):
        # same transactions, different first-appearance order
        first = parse_database("a b\nb c\n")
        second = parse_database("b c\na b\n")
        itemset_1 = first.itemset_from_labels(["c", "b"])
        itemset_2 = second.itemset_from_labels(["c", "b"])
        assert first.render(itemset_1) == second.render(itemset_2) == "b c"


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_parse_render_parse_round_trip(seed):
    rng = random.Random(seed)
    db = random_database(rng)
    text = "".join(db.render(t.items) + "\n" for t in db.transactions)
    reparsed = parse_database(text)
    assert len(reparsed) == len(db)
    assert set(reparsed.labels) <= set(db.labels)
    original = [set(db.labels_of(t.items)) for t in db.transactions]
    round_tripped = [set(reparsed.labels_of(t.items)) for t in reparsed.transactions]
    assert original == round_tripped


def test_round_trip_worked_database(worked_db):
    text = "".join(worked_db.render(t.items) + "\n" for t in worked_db.transactions)
    reparsed = parse_database(text)
    assert [set(reparsed.labels_of(t.items)) for t in reparsed.transactions] == [
        set(worked_db.labels_of(t.items)) for t in worked_db.transactions
    ]


class TestLineEnds:
    """A transaction line ends at '\\n' only; one trailing '\\r' is dropped."""

    @pytest.mark.parametrize("separator", ["\x0c", "\u2028"])
    def test_form_feed_and_line_separator_stay_in_their_line(self, separator):
        db = parse_database(f"a b{separator}c d\n")
        assert len(db) == 1
        assert db.labels == ("a", "b", "c", "d")

    def test_crlf_reads_like_lf(self):
        text = "# header\na b\n\n   \nb c\n"
        crlf = parse_database(text.replace("\n", "\r\n"))
        lf = parse_database(text)
        assert crlf.labels == lf.labels == ("a", "b", "c")
        assert crlf.transactions == lf.transactions
