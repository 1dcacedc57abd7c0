"""Item interning, bit-vector item-sets, and transaction databases.

The item universe of a database is the ordered set of distinct item labels,
interned in order of first appearance. An item-set is a fixed-width
bit-vector over that universe, so subset tests and intersections are single
integer operations. All types here are immutable after construction and
safe to share across threads; every operation is a pure function. Two
pieces of each database's state are built later, on first use, and never
mutated after they are built: the support index, made on the first
support count, and the label order, made on the first sort key or
rendering. The support index holds each item's tid-list (an int with a
bit per transaction) in one 16-entry table per 4 items, whose entry b is
the AND of the tid-lists of nibble b's items; it takes at most 4x the
memory of the plain tid-lists. Two threads racing on a first use can at
worst build the same piece twice, as identical copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence, Union

# Mining rare and non-present item-sets walks from the full item-set down to
# single items, and the number of rare plus non-present item-sets can approach
# 2^|I|; the cap keeps that honest at desk scale. Rare-only mining walks just
# the present item-sets. Override per call where a larger universe is intended.
DEFAULT_ITEM_CAP = 24


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

    @property
    def tag(self) -> str:
        return self.value


def classify_support(support: int, sigma: int) -> Classification:
    """Three-way class: zero support is non-present, below sigma is rare."""
    if support == 0:
        return Classification.NONPRESENT
    if support < sigma:
        return Classification.RARE
    return Classification.FREQUENT


@dataclass(frozen=True, slots=True)
class MinedItemSet:
    """An item-set with its exact support and its class relative to sigma.

    The one result type of every miner: rare, frequent and exhaustive.
    """

    itemset: ItemSet
    support: int
    classification: Classification


def _require_same_width(a: "ItemSet", b: "ItemSet") -> None:
    if a.width != b.width:
        raise ValueError(f"item-set widths differ: {a.width} != {b.width}")


@dataclass(frozen=True, slots=True)
class ItemSet:
    """Fixed-width bit-vector item-set; bit i is set iff item i is a member."""

    mask: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"negative item-set width {self.width}")
        if not 0 <= self.mask < (1 << self.width):
            raise ValueError(f"mask {self.mask:#x} out of range for width {self.width}")

    @classmethod
    def empty(cls, width: int) -> "ItemSet":
        return cls(0, width)

    @classmethod
    def full(cls, width: int) -> "ItemSet":
        return cls((1 << width) - 1, width)

    @classmethod
    def from_ids(cls, ids: Iterable[int], width: int) -> "ItemSet":
        mask = 0
        for item_id in ids:
            if not 0 <= item_id < width:
                raise ValueError(f"item id {item_id} out of range for width {width}")
            mask |= 1 << item_id
        return cls(mask, width)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def item_ids(self) -> tuple[int, ...]:
        """Member item ids, ascending."""
        return tuple(i for i in range(self.width) if self.mask >> i & 1)

    def is_subset_of(self, other: "ItemSet") -> bool:
        _require_same_width(self, other)
        return self.mask & ~other.mask == 0

    def intersect(self, other: "ItemSet") -> "ItemSet":
        _require_same_width(self, other)
        return ItemSet(self.mask & other.mask, self.width)


def iter_child_masks(mask: int) -> Iterator[int]:
    """All subsets of `mask` with exactly one bit cleared, lowest bit first."""
    bits = mask
    while bits:
        low = bits & -bits
        yield mask ^ low
        bits ^= low


def combinable(a: ItemSet, b: ItemSet, k: int) -> bool:
    """True iff both operands have k+1 items and share exactly k of them.

    This is the condition under which intersecting two item-sets of one
    lattice level yields a member of the level below.
    """
    _require_same_width(a, b)
    if a.cardinality != k + 1 or b.cardinality != k + 1:
        return False
    return (a.mask & b.mask).bit_count() == k


class TransactionDatabase:
    """An interned item universe plus each transaction's item-id mask.

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
        rows = tuple(rows)
        limit = 1 << len(labels)
        if not all(0 < row < limit for row in rows):
            raise ValueError("every row must be a non-empty item-id mask within the universe")
        self._labels = labels
        self._index = index
        self._rows = rows
        # 4-item tid-list tables, built on the first support count.
        self._tables: Optional[list[list[int]]] = None
        # Label order tables, built on the first sort key or rendering.
        self._order: Optional[_LabelOrder] = None

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
        return ItemSet.from_ids((self.item_id(label) for label in labels), self.width)

    def full_itemset(self) -> ItemSet:
        return ItemSet.full(self.width)

    def labels_of(self, itemset: ItemSet) -> tuple[str, ...]:
        """Member labels, sorted lexicographically."""
        if itemset.width != self.width:
            raise ValueError("item-set width does not match this database")
        order = self._order or self._label_order()
        mask = itemset.mask
        ranks = 0
        for table in order.rank_tables:
            ranks += table[mask & 0xFF]
            mask >>= 8
        # The smallest label sits on the highest rank bit: read chunks top down.
        labels: tuple[str, ...] = ()
        for shift, table in order.label_tables:
            labels += table[ranks >> shift & 0xFF]
        return labels

    def render(self, itemset: ItemSet) -> str:
        """Canonical text form: labels sorted lexicographically, space separated.

        Used for all output and persistence so results are byte-deterministic
        and independent of item interning order.
        """
        return " ".join(self.labels_of(itemset))

    def support_of_mask(self, mask: int) -> int:
        """Number of transactions holding every item of `mask`.

        Counts on a vertical index (Eclat's tid-lists): item i's tid-list is
        an int with bit r set when transaction r holds item i. The index
        keeps one 16-entry table per 4 items, whose entry b is the AND of
        the tid-lists of the items in nibble b (entry 0 is every row), so
        the count is one AND per 4 items up to the mask's highest member,
        then a bit count. The empty mask counts every transaction; a mask
        with a bit outside the universe counts none.
        """
        tables = self._tables
        if tables is None:
            tables = self._tables = self._nibble_tables()
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

    def _label_order(self) -> "_LabelOrder":
        order = self._order = _LabelOrder(self._labels)
        return order

    def _nibble_tables(self) -> list[list[int]]:
        """Per 4 items, entry b is the AND of the tid-lists of nibble b's items.

        A tid-list has bit r set when transaction r holds the item. Entry 0
        of every table is one shared all-rows int and each one-item entry is
        that item's tid-list itself, so a full table adds 11 ints, each no
        wider than the narrowest tid-list it joins: with the list slots,
        the index takes at most 4x the memory of the plain tid-lists.
        """
        tids = [0] * self.width
        for r, mask in enumerate(self._rows):
            bit = 1 << r
            while mask:
                low = mask & -mask
                tids[low.bit_length() - 1] |= bit
                mask ^= low
        every = (1 << len(self._rows)) - 1
        tables = []
        for lo in range(0, self.width, 4):
            chunk = tids[lo:lo + 4]
            table = [every]
            for b in range(1, 1 << len(chunk)):
                high = b.bit_length() - 1
                rest = b ^ 1 << high
                table.append(table[rest] & chunk[high] if rest else chunk[high])
            tables.append(table)
        return tables

    def support(self, itemset: ItemSet) -> int:
        """Exact number of transactions containing every item of `itemset`."""
        if itemset.width != self.width:
            raise ValueError("item-set width does not match this database")
        return self.support_of_mask(itemset.mask)


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(0-based line index, line) of every line that is not blank or a comment.

    A line ends at '\n' only, and one trailing '\r' is dropped, so CRLF files
    read like LF files while form feeds and Unicode line separators stay
    inside their line. Blank lines and lines starting with '#' are skipped.
    """
    for i, line in enumerate(text.split("\n")):
        if line.strip() and not line.startswith("#"):
            yield i, line.removesuffix("\r")


def parse_database(text: str, *, max_items: int = DEFAULT_ITEM_CAP) -> TransactionDatabase:
    """Parse transaction text: one transaction per line, whitespace-separated.

    Tokens are arbitrary non-whitespace labels (numeric ids parse unchanged).
    Lines are read by `content_lines`; duplicate tokens within a line
    collapse to one membership. Items are interned in order of first
    appearance, and each line read becomes one row, in file order.

    Raises ItemUniverseError when the input holds more than `max_items`
    distinct items, and ValueError when `max_items` is below 1.
    """
    return _build((line.split() for _, line in content_lines(text)), None, max_items)


def database_from_transactions(
    transactions: Iterable[Iterable[str]],
    *,
    universe: Optional[Sequence[str]] = None,
    max_items: int = DEFAULT_ITEM_CAP,
) -> TransactionDatabase:
    """Build a database from in-memory label collections.

    With `universe` given, the item dictionary is fixed up front (items may
    then occur in no transaction) and unknown labels are rejected; otherwise
    items are interned in first-appearance order. Empty transactions are
    skipped: they can never affect the support of a non-empty item-set.
    """
    return _build(transactions, universe, max_items)


def _build(
    transactions: Iterable[Iterable[str]],
    universe: Optional[Sequence[str]],
    max_items: int,
) -> TransactionDatabase:
    """Intern label rows, check the universe and the cap, and build the database.

    Labels get ids after those of `universe`, in order of first appearance,
    so a label outside a given universe shows up as an id beyond it. Rows
    become masks only after the checks pass: a mask is as wide as the
    largest id in it, so an input far over the cap is refused while it is
    still small lists of ids.
    """
    if max_items < 1:
        raise ValueError(f"max_items must be at least 1, got {max_items}")
    fixed = () if universe is None else tuple(universe)
    index = {label: i for i, label in enumerate(fixed)}
    if len(index) != len(fixed):
        raise ValueError("duplicate labels in the item universe")
    id_rows = [[index.setdefault(label, len(index)) for label in row] for row in transactions]
    if universe is not None and len(index) > len(fixed):
        raise ValueError(f"item label {list(index)[len(fixed)]!r} not in the given universe")
    if len(index) > max_items:
        raise ItemUniverseError(len(index), max_items)
    rows = []
    for ids in id_rows:
        mask = 0
        for i in ids:
            mask |= 1 << i
        if mask:
            rows.append(mask)
    return TransactionDatabase(tuple(index), rows)


class _LabelOrder:
    """A database's items ranked by label, as 8-bit lookup tables.

    Rank 0 is the smallest label and sits on the highest of `width` rank
    bits. Item ids keep their first-appearance order; `rank_tables[j]` maps
    the j-th byte of an id mask to its rank bits. `label_tables` lists
    (shift, table) pairs, highest rank byte first; each table maps a rank
    byte to its labels in ascending order. `key_tables` maps each id byte
    to its items' count times 2^width minus their rank bits, so that
    `full` plus one entry per byte is `canonical_key`. It is None when the
    joined-label order is not the per-label order: some label is empty or
    holds a character at or below U+0020.
    """

    __slots__ = ("full", "rank_tables", "label_tables", "key_tables")

    def __init__(self, labels: tuple[str, ...]):
        width = len(labels)
        by_label = sorted(range(width), key=labels.__getitem__)
        rank_bit = [0] * width
        for rank, item in enumerate(by_label):
            rank_bit[item] = 1 << (width - 1 - rank)
        on_bit = [(labels[by_label[width - 1 - bit]],) for bit in range(width)]
        chunks = range(0, width, 8)
        self.full = (1 << width) - 1
        self.rank_tables = [_byte_table(rank_bit[lo:lo + 8], 0) for lo in chunks]
        self.label_tables = [(lo, _byte_table(on_bit[lo:lo + 8], ())) for lo in reversed(chunks)]
        self.key_tables: Optional[list[list[int]]] = None
        if all(label and min(label) > " " for label in labels):
            below = [(1 << width) - bit for bit in rank_bit]
            self.key_tables = [_byte_table(below[lo:lo + 8], 0) for lo in chunks]


def _byte_table(values: list, zero) -> list:
    """Entry b is the sum of values[i] over the bits i of b, highest bit first."""
    table = [zero]
    for b in range(1, 1 << len(values)):
        high = b.bit_length() - 1
        table.append(values[high] + table[b ^ 1 << high])
    return table


def canonical_key(itemset: ItemSet, db: TransactionDatabase) -> Union[int, tuple[int, str]]:
    """Sort key for all emitted output: cardinality, then rendered labels.

    The key is one int, `cardinality << width | (full ^ rank_mask)`, where
    `rank_mask` puts the smallest label on the highest bit: within one
    cardinality, a larger rank mask renders smaller. That is the rendered
    order only when no label is empty or holds a character at or below
    U+0020 (the joining space), because then no joined label sequence can
    sort between a label and its extensions. A database with such a label
    gets the `(cardinality, rendered labels)` tuple instead; the check is
    made once per database. Keys compare only within one database.
    """
    order = db._order or db._label_order()
    tables = order.key_tables
    if tables is None:
        return (itemset.cardinality, db.render(itemset))
    mask = itemset.mask
    key = order.full
    for table in tables:
        key += table[mask & 0xFF]
        mask >>= 8
    return key


def format_result_line(
    itemset: ItemSet,
    support: int,
    classification: Classification,
    db: TransactionDatabase,
) -> str:
    """One output line: `<labels> : <support> <CLASS>`."""
    return f"{db.render(itemset)} : {support} {classification.tag}"
