"""Item interning, bit-vector item-sets, and transaction databases.

The item universe of a database is its distinct item labels, with ids in
descending label order. An item-set is a fixed-width bit-vector over that
universe, so subset tests and intersections are single integer operations,
and within one cardinality a larger mask renders smaller, unless a label
defeats it (`TransactionDatabase._mask_keys`); ids, masks and ascending-mask
orders do not depend on the order of the input. All types here are
immutable after construction and safe to share across threads; every
operation is a pure function. A text is parsed in bulk (`_text_lines`,
`_build`), with no Python step per token. Two pieces of each database's
state are built on first use and never mutated after: the support index
`_tables`, by the first support count or Apriori walk (`_support_index`),
and the text tables `_texts`, a cached attribute, by the first text join
(`render`, `format_lines` and `canonical_key`). The support index holds
each item's tid-list (an int with a bit per transaction) in one 16-entry
table per 4 items, whose entry b is the AND of the tid-lists of nibble b's
items; it takes at most 4x the memory of the plain tid-lists. Its pass
reads the rows packed as bytes, with no Python step per row, and Apriori's
walk takes each item's own tid-list from it. The text tables hold, per 8
items, each byte's labels as text, so a mask renders with one lookup per 8
items, and a chunk of result lines with one `map` per table. Two threads
racing on a first use can at worst build the same piece twice, as
identical copies. A walk that counts most of the lattice counts on a copy
of its database that reads every support from one table (`_reading`); the
database it copied is not changed. Both level-wise walks make their
candidates with the one join here, `_join_bits`.

The package's value types derive from `_Frozen`, which gives a class with
`__slots__` the immutability, equality, hashing, repr and pickling of a
frozen dataclass without the import cost of `dataclasses`.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from operator import add, and_, attrgetter, getitem, ne
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

# Mining rare and non-present item-sets walks from the full item-set down to
# single items, and the number of rare plus non-present item-sets can approach
# 2^|I|; the cap keeps that honest at desk scale. Rare-only mining walks just
# the present item-sets. Override per call where a larger universe is intended.
DEFAULT_ITEM_CAP = 24

# The exhaustive referee (`lattice.classify_all`) enumerates all 2^|I| - 1
# item-sets, so it refuses a larger universe by default. Kept here, so that
# the CLI can name it without importing `lattice`.
ORACLE_ITEM_CAP = 16


class ItemUniverseError(ValueError):
    """An input would intern more distinct items than the configured cap."""

    def __init__(self, n_items: int, cap: int, what: str = "item universe"):
        self.n_items = n_items
        self.cap = cap
        super().__init__(
            f"{what} has {n_items} distinct items, exceeding the cap of {cap}"
        )


class Classification(Enum):
    """Support class of an item-set relative to a threshold sigma."""

    FREQUENT = "FREQUENT"
    RARE = "RARE"
    NONPRESENT = "NONPRESENT"

    def __init__(self, value: str) -> None:
        # A plain member attribute, read for every line `format_result_line`
        # makes; `value` is a Python-level descriptor, many times slower to read.
        self.tag = value


def classify_support(support: int, sigma: int) -> Classification:
    """Three-way class: zero support is non-present, below sigma is rare."""
    if support == 0:
        return Classification.NONPRESENT
    if support < sigma:
        return Classification.RARE
    return Classification.FREQUENT


# Lines per chunk of `TransactionDatabase.format_lines`, small enough to stay
# in the CPU caches: 512 lines wrote the 1,047,463 lines of a 20-item `mine`
# run about 1.4x as fast as 2^15 lines did, and no corpus measured was slower.
_CHUNK_LINES = 1 << 9

# For each bit b, a `bytes.translate` table that maps a byte to the digit
# b"1" when its bit b is set and b"0" when it is clear.
_BIT_DIGITS = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8)]


class _Frozen:
    """An immutable value whose fields are its subclass's `__slots__`.

    Each subclass naming slots gets, bound once, `_fields`, an `attrgetter`
    of the field tuple (every value type has two or more slots), and
    `_writers`, each slot's member descriptor `__set__`, in slot order. A
    subclass sets its fields in `__init__` with `object.__setattr__`, except
    `ItemSet` and `MinedItemSet`, built once per result, which call their
    writers and so skip `object.__setattr__`'s lookup of the field by name.
    `_batch` makes instances in bulk through the writers alone, as for the
    miners' results (`_bulk`) and parsed events (`parse_events`). Copies and
    pickles are rebuilt by calling the class with the fields in slot order,
    so they pass `__init__`'s checks.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._fields = attrgetter(*cls.__slots__)
            cls._writers = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    @classmethod
    def _batch(cls, n: int, *columns: Iterable) -> list:
        """`n` instances, field i of each taken from `columns[i]` in order, with
        no `__init__` call (so no check) and no Python call per instance: one
        `object.__new__` pass, then one `map` per field over its writer."""
        made = list(map(object.__new__, repeat(cls, n)))
        for write, column in zip(cls._writers, columns):
            any(map(write, made, column))
        return made

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields(self)


class MinedItemSet(_Frozen):
    """An item-set with its exact support and its class relative to sigma.

    The one result type of every miner: rare, frequent and exhaustive.
    """

    __slots__ = __match_args__ = ("itemset", "support", "classification")

    def __init__(self, itemset: ItemSet, support: int, classification: Classification):
        set_itemset, set_support, set_classification = self._writers
        set_itemset(self, itemset)
        set_support(self, support)
        set_classification(self, classification)


class ItemSet(_Frozen):
    """Fixed-width bit-vector item-set; bit i is set iff item i is a member.

    A thin, width-checked shell over its mask: set operations are mask
    operations (`a.mask & b.mask` intersects, `a.mask & ~b.mask == 0` tests
    a subset), and `ItemSet(0, width)` is the empty item-set.
    """

    __slots__ = __match_args__ = ("mask", "width")

    def __init__(self, mask: int, width: int):
        if width < 0:
            raise ValueError(f"negative item-set width {width}")
        if not 0 <= mask < (1 << width):
            raise ValueError(f"mask {mask:#x} out of range for width {width}")
        set_mask, set_width = self._writers
        set_mask(self, mask)
        set_width(self, width)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()


def _bulk(
    width: int,
    masks: Collection[int],
    supports: Optional[Iterable[int]] = None,
    classes: Iterable[Classification] = (),
) -> list:
    """`[ItemSet(m, width) for m in masks]`, or, given `supports`, each mask
    as `MinedItemSet(ItemSet(m, width), s, c)` with the support and class in
    the same place of `supports` and `classes`; with no Python call per object.

    Each batch is made by `_Frozen._batch`, so `__init__`'s checks are
    skipped and every mask must lie below `1 << width`. The miners build
    their results here.
    """
    itemsets = ItemSet._batch(len(masks), masks, repeat(width))
    if supports is None:
        return itemsets
    return MinedItemSet._batch(len(itemsets), itemsets, supports, classes)


def iter_child_masks(mask: int) -> Iterator[int]:
    """All subsets of `mask` with exactly one bit cleared, lowest bit first."""
    bits = mask
    while bits:
        low = bits & -bits
        yield mask ^ low
        bits ^= low


def _level_masks(level: Iterable[ItemSet]) -> tuple[int, set[int]]:
    """The common width (0 if empty) and the distinct masks of a candidate
    rule's level of `ItemSet`s; ValueError on mixed widths or cardinalities."""
    members = list(level)
    widths = {m.width for m in members}
    if len(widths) > 1:
        raise ValueError("mixed item-set widths in one level")
    masks = {m.mask for m in members}
    if len({mask.bit_count() for mask in masks}) > 1:
        raise ValueError("mixed cardinalities in one level")
    return max(widths, default=0), masks


def _join(masks: Collection[int], width: int) -> list[int]:
    """The join's candidates (`_join_bits`) of distinct masks of one cardinality, unsorted."""
    return [mask | 1 << i for mask, bits in _join_bits(masks, width).items()
            for i in range(mask.bit_length(), bits.bit_length()) if bits >> i & 1]


def _join_bits(masks: Collection[int], width: int) -> dict[int, int]:
    """The join on distinct masks of one cardinality, by member: `{mask: bits}`
    for each member with a candidate, where bit i of `bits` is set when i is
    above the member's highest item and `mask | 1 << i` is a candidate, all
    of whose one-item reductions are members. Apriori joins its supported
    k-sets; the top-down walk their complements (`rare._candidate_masks`).

    One pass records, for each one-item reduction r of a member, the items
    that extend r into a member. The candidate `mask | 1 << i` drops to a
    one-item reduction `(mask ^ 1 << j) | 1 << i` for each member item j,
    and to `mask` itself, so i is kept when it extends every one-item
    reduction of `mask`: one AND per member item, not a test per candidate.
    """
    # The bit loops are inline: with a generator over the bits, warm
    # `mine_frequent` on the benchmark's Zipf corpora took about 1.2x as long.
    extending: dict[int, int] = {}
    for mask in masks:
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            extending[mask ^ bit] = extending.get(mask ^ bit, 0) | bit
    full = (1 << width) - 1
    joined = {}
    for mask in masks:
        bits = full >> mask.bit_length() << mask.bit_length()
        rest = mask
        while rest and bits:
            bit = rest & -rest
            rest ^= bit
            bits &= extending[mask ^ bit]
        if bits:
            joined[mask] = bits
    return joined


class TransactionDatabase:
    """An interned item universe plus each transaction's item-id mask.

    `labels[i]` is item i's label, and the labels strictly descend: ids run
    in descending label order, so a mask compares like its rendered labels.
    `rows[r]` has bit i set when transaction r holds item i; rows keep
    their input order, and each is non-empty and within the universe.
    """

    def __init__(self, labels: Sequence[str], rows: Iterable[int]):
        labels = tuple(labels)
        index: dict[str, int] = {}
        for i, label in enumerate(labels):
            if label in index:
                raise ValueError(f"duplicate item label {label!r}")
            index[label] = i
        if any(a < b for a, b in zip(labels, labels[1:])):
            raise ValueError("item labels must be in descending order")
        rows = tuple(rows)
        if rows and not 0 < min(rows) <= max(rows) < 1 << len(labels):
            raise ValueError("every row must be a non-empty item-id mask within the universe")
        self._labels = labels
        self._index = index
        self._rows = rows
        # Whether a larger mask renders smaller within each cardinality, so
        # that output needs no sort (`rare._ordered`). Ids run in descending
        # label order, so it holds unless some label is empty or holds a
        # character at or below U+0020, the joining space: only such a label
        # lets a joined label sequence sort between a label and its extensions.
        self._mask_keys = all(label and min(label) > " " for label in labels)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def rows(self) -> tuple[int, ...]:
        """Each transaction's item-id mask, in input order."""
        return self._rows

    @property
    def width(self) -> int:
        """Size of the item universe |I|."""
        return len(self._labels)

    def __len__(self) -> int:
        """Number of transactions |D|."""
        return len(self._rows)

    def item_id(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown item label {label!r}") from None

    def itemset_from_labels(self, labels: Iterable[str]) -> ItemSet:
        mask = 0
        for label in labels:
            mask |= 1 << self.item_id(label)
        return ItemSet(mask, self.width)

    def labels_of(self, mask: int) -> tuple[str, ...]:
        """Member labels of `mask`, sorted lexicographically: highest id first."""
        labels = self._labels
        if not 0 <= mask < 1 << len(labels):
            raise ValueError(f"mask {mask:#x} out of range for width {len(labels)}")
        out = []
        while mask:
            high = mask.bit_length() - 1
            out.append(labels[high])
            mask ^= 1 << high
        return tuple(out)

    def render(self, itemset: ItemSet) -> str:
        """Canonical text form: labels sorted lexicographically, space separated.

        Used for all output and persistence so results are byte-deterministic.
        """
        if itemset.width != self.width:
            raise ValueError("item-set width does not match this database")
        return self._joined(itemset.mask)[:-1]

    def format_lines(self, pairs: Iterable[tuple[int, int]], threshold: int) -> Iterator[str]:
        """`format_result_line` of each `(mask, support)` pair, classed by `classify_support(support,
        threshold)`, plus a line feed, in chunks of `_CHUNK_LINES` lines made with no Python call per
        line: one `map` per text table over the masks' bytes, one tail per distinct support, one join."""
        tables = self._texts
        tails: dict[int, str] = {}
        pairs = iter(pairs)
        while chunk := list(islice(pairs, _CHUNK_LINES)):
            masks, supports = zip(*chunk)
            for s in set(supports).difference(tails):
                tails[s] = f": {s} {classify_support(s, threshold).tag}\n"
            columns = [map(table.__getitem__, byte) for table, byte in
                       zip(tables, zip(*map(int.to_bytes, masks, repeat(len(tables)), repeat("big"))))]
            columns.append(map(tails.__getitem__, supports))
            yield "".join(chain.from_iterable(zip(*columns)))

    def _joined(self, mask: int) -> str:
        """The rendered labels of `mask` plus one space, one lookup per 8 ids."""
        tables = self._texts
        return "".join(map(getitem, tables, mask.to_bytes(len(tables), "big")))

    @cached_property
    def _texts(self) -> list[list[str]]:
        """Per 8 ids, highest byte first: byte b's labels, ascending, each plus one space."""
        labels = [label + " " for label in self._labels]
        return _subset_tables(labels, 8, "", add)[::-1]

    def support_of_mask(self, mask: int) -> int:
        """Number of transactions holding every item of `mask`.

        Counts on a vertical index (Eclat's tid-lists): item i's tid-list is
        an int with bit r set when transaction r holds item i. The index
        keeps one 16-entry table per 4 items, whose entry b is the AND of
        the tid-lists of the items in nibble b (entry 0 is every row), so
        the count is one AND per 4 items up to the mask's highest member,
        then a bit count. The empty mask counts every transaction; a mask
        with a bit outside the universe counts none. A copy made by
        `_reading` holds `None` for its index: it reads the count from its
        table.
        """
        try:
            tables = self._tables
        except AttributeError:
            tables = self._support_index()
        if tables is None:
            return 0 if mask >> len(self._labels) else self._supports[mask]
        if not mask:
            return len(self._rows)
        if mask >> len(self._labels):
            return 0
        rows = -1
        chunk = 0
        while mask:
            rows &= tables[chunk][mask & 0xF]
            mask >>= 4
            chunk += 1
        return rows.bit_count()

    def _reading(self, supports: Sequence[int]) -> TransactionDatabase:
        """A copy of this database whose `support_of_mask(m)` is `supports[m]`.

        `supports` must hold the support of every mask below 2^|I|. The copy
        holds `None` as its `_tables`, so it never builds a tid-list index. It
        shares all other state with this database, the text tables too if
        this database has built them, and this database is left as it was.
        """
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, _tables=None, _supports=supports)
        return copy

    def _support_index(self) -> list[list[int]]:
        """The support index `_tables`, built on the first call and then kept:
        per 4 items, entry b is the AND of the tid-lists of nibble b's items,
        so entry 1 << (i & 3) of table i >> 2 is item i's own tid-list. The
        class has no `_tables`, not even a `cached_property`, as CPython 3.11
        does not specialise a load that a Python-level descriptor could serve,
        and `support_of_mask` loads it once per count.

        A tid-list has bit r set when transaction r holds the item. The
        tid-lists are made with no Python step per row: the rows are packed
        little-endian, ceil(|I| / 8) bytes each, and item i's tid-list is
        byte i >> 3 of every row, each mapped to the binary digit of its bit
        i & 7, read backwards as one base-2 int (base 2 is exempt from the
        int-string digit limit). Entry 0 of every table is one shared
        all-rows int, so a full table adds 15 ints, each no wider than the
        narrowest tid-list it joins. The plain tid-lists are freed, and with
        the list slots the index takes at most 4x their memory.
        """
        # Not `"_tables" in self.__dict__`: reading `__dict__` materialises
        # the instance dict, which slows every specialised attribute load.
        if hasattr(self, "_tables"):
            return self._tables
        width, rows = len(self._labels), self._rows
        stride = (width + 7) >> 3
        packed = b"".join(map(int.to_bytes, rows, repeat(stride), repeat("little")))
        tids = [int(packed[i >> 3::stride].translate(_BIT_DIGITS[i & 7])[::-1] or b"0", 2)
                for i in range(width)]
        tables = self._tables = _subset_tables(tids, 4, (1 << len(rows)) - 1, and_)
        return tables


def _subset_tables(values: Sequence, size: int, empty, join: Callable) -> list[list]:
    """Per `size` ids, a table whose entry 0 is `empty` and whose entry b is
    `join(value of b's highest id, entry b without that id)`."""
    tables = []
    for lo in range(0, len(values), size):
        chunk = values[lo:lo + size]
        table = [empty]
        for b in range(1, 1 << len(chunk)):
            high = b.bit_length() - 1
            table.append(join(chunk[high], table[b ^ 1 << high]))
        tables.append(table)
    return tables


def _text_lines(text: str) -> list[str]:
    """Every line of `text`, a comment (first character '#') read as empty.

    A line ends at '\n' only, so form feeds and Unicode line separators stay
    inside their line, and a CRLF line's '\r' is whitespace to `str.split`,
    which both parsers map over the lines, with no Python step per token.
    One leading U+FEFF (a UTF-8 byte-order mark) is dropped, so a file saved
    with one reads like the same file without it.
    """
    text = text.removeprefix("\ufeff")
    lines = text.split("\n")
    if text.startswith("#") or "\n#" in text:
        for i in compress(count(), map(str.startswith, lines, repeat("#"))):
            lines[i] = ""
    return lines


def parse_database(text: str, *, max_items: int = DEFAULT_ITEM_CAP) -> TransactionDatabase:
    """Parse transaction text: one transaction per line, whitespace-separated.

    Tokens are arbitrary non-whitespace labels (numeric ids parse unchanged).
    Lines are read by `_text_lines`; duplicate tokens within a line
    collapse to one membership. Item ids run in descending label order, so
    a mask compares like its rendered labels and the ids do not depend on
    the order of lines or tokens; each line with a token becomes one row,
    in file order.

    Raises ItemUniverseError when the input holds more than `max_items`
    distinct items, and ValueError when `max_items` is below 1.
    """
    return _build(list(map(str.split, _text_lines(text))), None, max_items)


def database_from_transactions(
    transactions: Iterable[Iterable[str]],
    *,
    universe: Optional[Sequence[str]] = None,
    max_items: int = DEFAULT_ITEM_CAP,
) -> TransactionDatabase:
    """Build a database from in-memory label collections.

    With `universe` given, the item dictionary is fixed up front (items may
    then occur in no transaction) and unknown labels are rejected. Either
    way, item ids run in descending label order, so a mask compares like its
    rendered labels. Empty transactions are skipped: they can never affect
    the support of a non-empty item-set.
    """
    return _build(list(map(tuple, transactions)), universe, max_items)


def _build(
    rows: Sequence[Sequence[str]],
    universe: Optional[Sequence[str]],
    max_items: int,
) -> TransactionDatabase:
    """Intern label rows, check the universe and the cap, and build the database.

    Labels are interned after those of `universe`, in order of first
    appearance, so a label outside a given universe is the first one past
    it. Only after the checks pass are the labels given ids in descending
    label order, so that a mask compares like its rendered labels, and the
    rows made into masks, with no Python step per token: a row's mask is the
    sum of its items' bits, their OR unless a token repeats, when the sum
    has fewer bits than the row has tokens and is taken again over a set.
    """
    if max_items < 1:
        raise ValueError(f"max_items must be at least 1, got {max_items}")
    fixed = () if universe is None else tuple(universe)
    index = dict.fromkeys(fixed)
    if len(index) != len(fixed):
        raise ValueError("duplicate labels in the item universe")
    index.update(dict.fromkeys(chain.from_iterable(rows)))
    if universe is not None and len(index) > len(fixed):
        raise ValueError(f"item label {list(index)[len(fixed)]!r} not in the given universe")
    if len(index) > max_items:
        raise ItemUniverseError(len(index), max_items)
    labels = sorted(index, reverse=True)
    bit = dict(zip(labels, map((1).__lshift__, range(len(labels))))).__getitem__
    masks = list(map(sum, map(map, repeat(bit), rows)))
    for r in compress(count(), map(ne, map(int.bit_count, masks), map(len, rows))):
        masks[r] = sum(set(map(bit, rows[r])))
    return TransactionDatabase(labels, filter(None, masks))


def canonical_key(mask: int, db: TransactionDatabase) -> tuple[int, str]:
    """Sort key of item-set `mask` in all emitted output: `(cardinality,
    rendered labels)`.

    The text drops the joining space after the last label: with it, the
    label `a` would sort after `a` followed by U+0001. Keys compare only
    within one database.
    """
    return (mask.bit_count(), db._joined(mask)[:-1])


def format_result_line(
    itemset: ItemSet,
    support: int,
    classification: Classification,
    db: TransactionDatabase,
) -> str:
    """One output line: `<labels> : <support> <CLASS>`."""
    return f"{db.render(itemset)} : {support} {classification.tag}"
