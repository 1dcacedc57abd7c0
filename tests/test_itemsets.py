"""Item-sets, parsing and support counting."""

from __future__ import annotations

import random
import sys
import threading
import tracemalloc

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
import rareminer.itemsets as itemsets
from rareminer import (
    DEFAULT_ITEM_CAP,
    Classification,
    ItemSet,
    ItemUniverseError,
    TransactionDatabase,
    classify_all,
    database_from_transactions,
    format_result_line,
    iter_supported,
    parse_database,
)
from rareminer.itemsets import _CHUNK_LINES, canonical_key, classify_support


class TestParsing:
    def test_worked_database(self, worked_db):
        assert len(worked_db) == 5
        assert worked_db.width == 5
        assert worked_db.labels == ("e", "d", "c", "b", "a")
        rows = [set(worked_db.labels_of(row)) for row in worked_db.rows]
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
        assert ItemSet(db.rows[0], db.width).cardinality == 2
        assert db.labels == ("b", "a")

    def test_comments_and_blank_lines_skipped(self):
        db = parse_database("# header\n\na b\n   \n# tail\nb c\n")
        assert len(db) == 2
        assert db.width == 3
        # only the two content lines become rows, in file order
        assert [db.labels_of(row) for row in db.rows] == [("a", "b"), ("b", "c")]

    def test_hash_must_prefix_the_line(self):
        # tokens are arbitrary non-whitespace, so an indented '#x' is an item
        db = parse_database(" #x y\n")
        assert db.labels == ("y", "#x")

    def test_numeric_fimi_tokens_parse_unchanged(self):
        db = parse_database("1 2 5\n2 5\n")
        assert db.labels == ("5", "2", "1")
        assert db.support_of_mask(db.itemset_from_labels(["2", "5"]).mask) == 2

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

    def test_cap_is_checked_before_rows_become_masks(self):
        # A row's mask is as wide as its largest id, so building masks while
        # interning would hold about 50,000 ints of up to 6 kB each before
        # the cap refused the input.
        text = "".join(f"i{n}\n" for n in range(50_000))
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            with pytest.raises(ItemUniverseError) as excinfo:
                parse_database(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert excinfo.value.n_items == 50_000
        assert peak < 48_000_000

    def test_first_appearance_interning(self):
        # Labels first appear as x, z, y; ids still run in descending label order.
        db = parse_database("x z\ny x\n")
        assert db.labels == ("z", "y", "x")
        assert [db.item_id(label) for label in "xyz"] == [2, 1, 0]
        assert db.rows == (0b101, 0b110)


class TestBuilder:
    def test_forced_universe_allows_absent_items(self):
        db = database_from_transactions([["a"]], universe=["a", "b", "c"])
        assert db.width == 3
        assert len(db) == 1
        assert db.support_of_mask(db.itemset_from_labels(["b"]).mask) == 0

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="not in the given universe"):
            database_from_transactions([["a", "q"]], universe=["a", "b"])

    def test_empty_transactions_skipped(self):
        db = database_from_transactions([["a"], [], ["b"]])
        assert len(db) == 2

    def test_duplicate_universe_labels_rejected(self):
        with pytest.raises(ValueError):
            database_from_transactions([], universe=["a", "a"])


class TestConstructor:
    def test_rows_are_kept_in_order(self):
        db = TransactionDatabase(["c", "b", "a"], [0b110, 0b001, 0b110])
        assert db.rows == (0b110, 0b001, 0b110)
        assert len(db) == 3
        assert db.support_of_mask(0b010) == 2

    def test_repeated_label_rejected(self):
        with pytest.raises(ValueError, match="duplicate item label 'a'"):
            TransactionDatabase(["a", "b", "a"], [0b1])

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            TransactionDatabase(["b", "a"], [0b1, 0])

    @pytest.mark.parametrize("row", [0b100, 0b101, 1 << 10])
    def test_row_past_the_width_rejected(self, row):
        with pytest.raises(ValueError, match="within the universe"):
            TransactionDatabase(["b", "a"], [row])

    @pytest.mark.parametrize("labels", [["a", "b"], ["a", "c", "b"], ["c", "a", "b"], ["b", "", "c"]])
    def test_labels_out_of_descending_order_rejected(self, labels):
        with pytest.raises(ValueError, match="descending order"):
            TransactionDatabase(labels, [0b1])


@pytest.mark.parametrize("cap", [0, -3])
@pytest.mark.parametrize("build", [
    pytest.param(lambda cap: parse_database("", max_items=cap), id="parse_database"),
    # The cap is checked first: the unknown label would be refused otherwise.
    pytest.param(
        lambda cap: database_from_transactions([["q"]], universe=["a"], max_items=cap),
        id="database_from_transactions",
    ),
])
def test_item_cap_below_1_is_a_plain_value_error(build, cap):
    with pytest.raises(ValueError, match=f"^max_items must be at least 1, got {cap}$") as excinfo:
        build(cap)
    assert type(excinfo.value) is ValueError


class TestItemSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ItemSet(-1, 4)
        with pytest.raises(ValueError):
            ItemSet(1 << 4, 4)
        with pytest.raises(ValueError):
            ItemSet(0, -1)

    def test_item_ids_and_cardinality(self):
        s = ItemSet(0b1101, 5)
        assert [i for i in range(s.width) if s.mask >> i & 1] == [0, 2, 3]
        assert s.cardinality == 3


class TestSupport:
    def test_worked_checkpoints(self, worked_db):
        assert worked_db.support_of_mask(worked_db.itemset_from_labels("bd").mask) == 2
        assert worked_db.support_of_mask(worked_db.itemset_from_labels("abcde").mask) == 0
        assert worked_db.support_of_mask(worked_db.itemset_from_labels("ade").mask) == 0
        assert worked_db.support_of_mask(0) == len(worked_db)

    def test_every_worked_support(self, worked_db):
        for labels, expected in WORKED_DB_SUPPORTS.items():
            itemset = worked_db.itemset_from_labels(labels.split())
            assert worked_db.support_of_mask(itemset.mask) == expected, labels

    def test_labels_of_out_of_range(self, worked_db):
        for mask in (-1, 1 << worked_db.width):
            with pytest.raises(ValueError, match="out of range for width 5"):
                worked_db.labels_of(mask)

    def test_item_id_of_an_unknown_label(self, worked_db):
        with pytest.raises(KeyError, match="unknown item label 'z'"):
            worked_db.item_id("z")

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
        expected = naive_label_support(label_rows(db), db.labels_of(mask))
        assert db.support_of_mask(mask) == expected


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
    expected = [naive_label_support(rows, db.labels_of(m)) for m in masks]
    first = [db.support_of_mask(m) for m in masks]
    assert first == expected
    assert first[0] == len(db)
    # The index is cached on the database after the first count.
    assert [db.support_of_mask(m) for m in masks] == first
    assert db.support_of_mask(1 << db.width) == 0


def _chunk_edge_database(width: int, n_rows: int, seed: int) -> TransactionDatabase:
    """`n_rows` random rows over a forced universe of `width` items."""
    rng = random.Random(seed)
    universe = [f"i{n}" for n in range(width)]
    rows = [[label for label in universe if rng.random() < 0.6] or universe[:1] for _ in range(n_rows)]
    return database_from_transactions(rows, universe=universe, max_items=max(width, DEFAULT_ITEM_CAP))


@pytest.mark.parametrize("n_rows", [0, 70])
@pytest.mark.parametrize("width", [*range(14), 16, 17, 24, 25])
def test_counter_across_chunk_edges_matches_label_scan(width, n_rows):
    # The index keeps one table per 4 items, so widths 0-13 cover no table,
    # full tables, and a last table of 1, 2 or 3 items; at 0 rows, every
    # table entry is the empty tid-list. The label tables hold 8 ids each,
    # so widths 16-25 reach a second, a third and a partial fourth one.
    db = _chunk_edge_database(width, n_rows, seed=width)
    rows = label_rows(db)
    if width <= 8:
        masks = list(range(1 << width))
    else:
        rng = random.Random(width)
        masks = [rng.getrandbits(width) for _ in range(300)]
    # Masks whose only members sit in the last, possibly partial, table.
    last = max(width - 1, 0) // 4 * 4
    masks += [m << last for m in range(1, 1 << (width - last))]
    for mask in masks:
        assert db.labels_of(mask) == _naive_labels(db, mask), mask
        expected = naive_label_support(rows, db.labels_of(mask))
        assert db.support_of_mask(mask) == expected, mask
    assert db.support_of_mask(0) == len(db)
    # A bit past the universe matches no transaction, alone or with members.
    assert db.support_of_mask(1 << width) == 0
    assert db.support_of_mask((1 << width + 1) - 1) == 0


@pytest.mark.parametrize("width, n_rows", [(1, 3), (4, 10), (5, 200), (13, 1000), (24, 5000)])
def test_counter_index_is_at_most_4x_the_tid_lists(width, n_rows):
    db = _chunk_edge_database(width, n_rows, seed=width)
    tid_lists = [sum(1 << r for r, row in enumerate(db.rows) if row >> i & 1) for i in range(width)]
    db.support_of_mask(1)
    tables = db._tables
    assert [table[1 << i] for table in tables for i in range(4) if 1 << i < len(table)] == tid_lists

    def footprint(lists, ints):
        distinct = {id(n): n for n in ints}.values()
        return sum(map(sys.getsizeof, lists)) + sum(map(sys.getsizeof, distinct))

    index = footprint([tables, *tables], [n for table in tables for n in table])
    assert index <= 4 * footprint([tid_lists], tid_lists)


@pytest.mark.parametrize("n_rows", [0, 1, 5000])
@pytest.mark.parametrize("width", range(1, 41))
def test_index_tables_match_a_row_scan(width, n_rows):
    # The tid-lists are read off rows packed ceil(width / 8) bytes each, so
    # widths 1-40 cover whole and partial bytes, one to five of them per row;
    # 5,000 rows give tid-lists of 5,000 binary digits, past the limit that
    # int() puts on decimal strings (4,300 digits by default).
    rng = random.Random(width * 10_000 + n_rows)
    labels = [f"i{n:02d}" for n in range(width)][::-1]
    db = TransactionDatabase(labels, [rng.getrandbits(width) or 1 for _ in range(n_rows)])
    tids = [0] * width
    for r, row in enumerate(db.rows):
        for i in range(width):
            if row >> i & 1:
                tids[i] |= 1 << r
    expected = []
    for lo in range(0, width, 4):
        nibble = tids[lo:lo + 4]
        table = []
        for b in range(1 << len(nibble)):
            tid = (1 << n_rows) - 1
            for j, item_tid in enumerate(nibble):
                if b >> j & 1:
                    tid &= item_tid
            table.append(tid)
        expected.append(table)
    assert db._support_index() == expected


def test_the_cached_tables_are_built_on_first_read_and_kept(worked_db, monkeypatch):
    built = []
    subset_tables = itemsets._subset_tables
    # Each build records its table size: 4 items for the index, 8 for the text tables.
    monkeypatch.setattr(itemsets, "_subset_tables", lambda *args: built.append(args[1]) or subset_tables(*args))
    db = worked_db
    assert "_tables" not in vars(db) and "_texts" not in vars(db)
    # The first count builds the index, and every later count and Apriori walk reads it.
    assert db.support_of_mask(0b11) == WORKED_DB_SUPPORTS["d e"]
    tables = vars(db)["_tables"]
    assert db.support_of_mask(0b110) == WORKED_DB_SUPPORTS["c d"]
    assert len(list(iter_supported(db, 1))) == 4
    assert db._tables is tables and built == [4]
    assert "_texts" not in vars(db)
    # The first text join builds the text tables, and every later one reads them.
    assert db.render(ItemSet(0b11, db.width)) == "d e"
    texts = vars(db)["_texts"]
    assert "".join(db.format_lines([(0b11, 1)], 2)) == "d e : 1 RARE\n"
    assert db._texts is texts and built == [4, 8]
    # A copy reading a table of every support counts from it, builds no
    # index and shares the text tables built before it was made.
    counts = _counts(db)
    copy = db._reading(counts)
    assert _counts(copy) == counts
    assert vars(copy)["_tables"] is None and vars(db)["_tables"] is tables
    assert copy._texts is texts and built == [4, 8]


def _counts(db) -> list[int]:
    return [db.support_of_mask(m) for m in range(1 << db.width)]


def _naive_counts(db) -> list[int]:
    label_sets = label_rows(db)
    return [naive_label_support(label_sets, _naive_labels(db, m)) for m in range(1 << db.width)]


def _order(db) -> tuple[list, list[int]]:
    """Each mask's labels, and the masks sorted by their canonical keys."""
    pairs = [(db.labels_of(m), canonical_key(m, db)) for m in range(1 << db.width)]
    ranked = sorted(range(len(pairs)), key=lambda m: pairs[m][1])
    return [labels for labels, _ in pairs], ranked


def _naive_order(db) -> tuple[list, list[int]]:
    labels = [_naive_labels(db, m) for m in range(1 << db.width)]
    ranked = sorted(range(len(labels)), key=lambda m: (len(labels[m]), " ".join(labels[m])))
    return labels, ranked


def _naive_labels(db, mask: int) -> tuple[str, ...]:
    return tuple(sorted(label for i, label in enumerate(db.labels) if mask >> i & 1))


@pytest.mark.parametrize("first_use, naive", [
    pytest.param(_counts, _naive_counts, id="support_of_mask"),
    pytest.param(_order, _naive_order, id="labels_of-canonical_key"),
])
def test_threads_racing_on_the_first_count_agree(first_use, naive):
    rng = random.Random(20261018)
    rows = [[label for label in CORPUS_LABELS[:8] if rng.random() < 0.5] or ["a"] for _ in range(300)]
    reference = database_from_transactions(rows)
    # Ids run in descending label order, so every table entry lists its
    # labels highest id first, and the int key is the complemented mask.
    assert list(reference.labels) == sorted(reference.labels, reverse=True)
    expected = naive(reference)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            db = database_from_transactions(rows)
            results: list = [None] * 8

            def run(slot: int) -> None:
                results[slot] = first_use(db)

            threads = [threading.Thread(target=run, args=(slot,)) for slot in range(8)]
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
        assert worked_db.render(ItemSet(0, 5)) == ""
        assert worked_db.render(worked_db.itemset_from_labels("ecba")) == "a b c e"

    def test_render_refuses_an_itemset_of_another_width(self, worked_db):
        for width in (4, 6):
            with pytest.raises(ValueError, match="width does not match this database"):
                worked_db.render(ItemSet(1, width))

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
    text = "".join(db.render(ItemSet(row, db.width)) + "\n" for row in db.rows)
    reparsed = parse_database(text)
    assert len(reparsed) == len(db)
    assert set(reparsed.labels) <= set(db.labels)
    original = [set(db.labels_of(row)) for row in db.rows]
    round_tripped = [set(reparsed.labels_of(row)) for row in reparsed.rows]
    assert original == round_tripped


def test_round_trip_worked_database(worked_db):
    text = "".join(worked_db.render(ItemSet(row, worked_db.width)) + "\n" for row in worked_db.rows)
    reparsed = parse_database(text)
    assert [set(reparsed.labels_of(row)) for row in reparsed.rows] == [
        set(worked_db.labels_of(row)) for row in worked_db.rows
    ]


@st.composite
def corpus_lines(draw):
    """Lines of labels drawn from a pool of short labels sharing prefixes."""
    labels = draw(st.lists(st.text("ab1é!", min_size=1, max_size=3), min_size=1, max_size=8, unique=True))
    line = st.lists(st.sampled_from(labels), min_size=1, max_size=5)
    return draw(st.lists(line, min_size=1, max_size=12))


@settings(deadline=None, max_examples=100)
@given(corpus_lines(), st.randoms(use_true_random=False), st.integers(1, 4))
def test_shuffled_input_gives_the_same_ids_and_orders(lines, rnd, sigma):
    # Ids run in descending label order, so neither the order of the lines
    # nor the order of the tokens within a line changes a mask, and every
    # ascending-mask order is the same.
    shuffled = [rnd.sample(line, len(line)) for line in rnd.sample(lines, len(lines))]
    first, second = (
        parse_database("".join(" ".join(line) + "\n" for line in corpus)) for corpus in (lines, shuffled)
    )
    assert first.labels == second.labels
    assert sorted(first.rows) == sorted(second.rows)
    assert classify_all(first, sigma) == classify_all(second, sigma)
    assert list(iter_supported(first, sigma)) == list(iter_supported(second, sigma))


class TestLineEnds:
    """A transaction line ends at '\\n' only; one trailing '\\r' is dropped."""

    @pytest.mark.parametrize("separator", ["\x0c", "\u2028"])
    def test_form_feed_and_line_separator_stay_in_their_line(self, separator):
        db = parse_database(f"a b{separator}c d\n")
        assert len(db) == 1
        assert db.labels == ("d", "c", "b", "a")

    def test_crlf_reads_like_lf(self):
        text = "# header\na b\n\n   \nb c\n"
        crlf = parse_database(text.replace("\n", "\r\n"))
        lf = parse_database(text)
        assert crlf.labels == lf.labels == ("c", "b", "a")
        assert crlf.rows == lf.rows


# The class each subcommand's lines take at `threshold`, and the supports
# its results can have in a database of `n` rows.
THRESHOLD_RULES = {
    "mine": (lambda s, t: Classification.RARE if s else Classification.NONPRESENT,
             lambda t, n: range(0, t)),
    "frequent": (lambda s, t: Classification.FREQUENT, lambda t, n: range(t, n + 1)),
    "classify": (classify_support, lambda t, n: range(0, n + 1)),
}


def _label_database(width: int, n_rows: int, seed: int) -> TransactionDatabase:
    """`width` items, some labels non-ASCII and some holding U+0001, over
    random rows, built through `max_items` past the default cap."""
    rng = random.Random(seed)
    shapes = ("i{}", "\u00e9{}", "a\x01{}", "\u65e5\u672c{}", "z{}\x01")
    labels = [rng.choice(shapes).format(i) for i in range(width)]
    rows = [[label for label in labels if rng.random() < 0.4] or labels[:1] for _ in range(n_rows)]
    return parse_database("".join(" ".join(row) + "\n" for row in rows), max_items=width)


def _per_line(db, pairs, classes) -> str:
    return "".join(format_result_line(ItemSet(mask, db.width), support, classes(support), db) + "\n"
                   for mask, support in pairs)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 24, 25, 33, 40])
def test_format_lines_is_format_result_line_at_the_text_table_edges(width):
    # A text table holds 8 items, so these widths fill, just miss and just
    # pass one to five tables.
    db = _label_database(width, 12, seed=width)
    assert db.width == width
    rng = random.Random(width)
    full = (1 << width) - 1
    masks = [full, 1, 1 << width - 1] + [rng.randint(1, full) for _ in range(60)]
    masks += [full ^ 1 << i for i in range(width) if full ^ 1 << i]
    for name, (rule, supports) in THRESHOLD_RULES.items():
        for threshold in range(1, len(db) + 2):
            allowed = supports(threshold, len(db))
            if not allowed:
                continue
            pairs = [(mask, rng.choice(allowed)) for mask in masks] + [(full, s) for s in allowed]
            expected = _per_line(db, pairs, lambda s: rule(s, threshold))
            assert "".join(db.format_lines(pairs, threshold)) == expected, (name, threshold)


def test_format_lines_of_no_pairs_is_no_chunk():
    db = _label_database(9, 5, seed=1)
    assert list(db.format_lines([], 3)) == []
    assert list(db.format_lines(iter(()), 3)) == []


def test_format_lines_splits_one_pair_past_the_chunk_size_into_two_chunks():
    db = _label_database(17, 8, seed=2)
    rng = random.Random(2)
    pairs = [(rng.randint(1, (1 << 17) - 1), rng.randint(0, len(db))) for _ in range(_CHUNK_LINES + 1)]
    # A generator: the formatter must not need the length of its pairs.
    chunks = list(db.format_lines((pair for pair in pairs), 4))
    assert [chunk.count("\n") for chunk in chunks] == [_CHUNK_LINES, 1]
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert "".join(chunks) == _per_line(db, pairs, lambda s: classify_support(s, 4))
