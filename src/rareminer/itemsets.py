"""Item interning, bit-vector item-sets, and transaction databases.

The item universe of a database is the ordered set of distinct item labels,
interned in order of first appearance. An item-set is a fixed-width
bit-vector over that universe, so subset tests and intersections are single
integer operations. All types here are immutable after construction and
safe to share across threads; every operation is a pure function. The one
piece of state built later is each database's per-item index, made on the
first support count and never mutated after it is built: two threads
racing on that first count can at worst build it twice, with identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

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


@dataclass(frozen=True, slots=True)
class Transaction:
    """One database record: its source line index and its item members."""

    id: int
    items: ItemSet


class TransactionDatabase:
    """An interned item universe plus an ordered list of transactions."""

    def __init__(self, labels: Sequence[str], transactions: Sequence[Transaction]):
        labels = tuple(labels)
        index: dict[str, int] = {}
        for i, label in enumerate(labels):
            if label in index:
                raise ValueError(f"duplicate item label {label!r}")
            index[label] = i
        width = len(labels)
        for t in transactions:
            if t.items.width != width:
                raise ValueError("transaction width does not match the item universe")
            if t.items.mask == 0:
                raise ValueError("empty transactions are not allowed")
        self._labels = labels
        self._index = index
        self._transactions = tuple(transactions)
        # Per-item tid-lists, built on the first support count.
        self._tids: Optional[list[int]] = None

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def transactions(self) -> tuple[Transaction, ...]:
        return self._transactions

    @property
    def width(self) -> int:
        """Size of the item universe |I|."""
        return len(self._labels)

    def __len__(self) -> int:
        """Number of transactions |D|."""
        return len(self._transactions)

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
        return tuple(sorted(self._labels[i] for i in itemset.item_ids()))

    def render(self, itemset: ItemSet) -> str:
        """Canonical text form: labels sorted lexicographically, space separated.

        Used for all output and persistence so results are byte-deterministic
        and independent of item interning order.
        """
        return " ".join(self.labels_of(itemset))

    def support_of_mask(self, mask: int) -> int:
        """Number of transactions holding every item of `mask`.

        Counts on a vertical index (Eclat's tid-lists): item i's int has bit
        r set when transaction r holds item i. The count is the AND of the
        members' ints, stopped as soon as it is empty, then its bit count.
        The empty mask counts every transaction; a mask with a bit outside
        the universe counts none.
        """
        tids = self._tids
        if tids is None:
            tids = self._tids = self._tid_lists()
        if not mask:
            return len(self._transactions)
        if mask >> len(tids):
            return 0
        rows = -1
        while mask and rows:
            low = mask & -mask
            rows &= tids[low.bit_length() - 1]
            mask ^= low
        return rows.bit_count()

    def _tid_lists(self) -> list[int]:
        """One int per item whose bit r is set when transaction r holds it."""
        tids = [0] * self.width
        for row, t in enumerate(self._transactions):
            bit = 1 << row
            mask = t.items.mask
            while mask:
                low = mask & -mask
                tids[low.bit_length() - 1] |= bit
                mask ^= low
        return tids

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
    appearance; each transaction keeps its source line index as its id.

    Raises ItemUniverseError when the input holds more than `max_items`
    distinct items.
    """
    rows = ((lineno, line.split()) for lineno, line in content_lines(text))
    return _build(rows, None, max_items)


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
    return _build(enumerate(transactions), universe, max_items)


def _build(
    rows: Iterable[tuple[int, Iterable[str]]],
    universe: Optional[Sequence[str]],
    max_items: int,
) -> TransactionDatabase:
    """Intern `(id, labels)` rows, check the item cap, and build the database.

    Labels get ids after those of `universe`, in order of first appearance,
    so a label outside a given universe shows up as an id beyond it.
    """
    fixed = () if universe is None else tuple(universe)
    index = {label: i for i, label in enumerate(fixed)}
    if len(index) != len(fixed):
        raise ValueError("duplicate labels in the item universe")
    id_rows = [(i, [index.setdefault(label, len(index)) for label in row]) for i, row in rows]
    if universe is not None and len(index) > len(fixed):
        raise ValueError(f"item label {list(index)[len(fixed)]!r} not in the given universe")
    if len(index) > max_items:
        raise ItemUniverseError(len(index), max_items)
    width = len(index)
    transactions = [
        Transaction(i, ItemSet.from_ids(ids, width)) for i, ids in id_rows if ids
    ]
    return TransactionDatabase(tuple(index), transactions)


def canonical_key(itemset: ItemSet, db: TransactionDatabase) -> tuple[int, str]:
    """Sort key for all emitted output: cardinality, then rendered labels."""
    return (itemset.cardinality, db.render(itemset))


def format_result_line(
    itemset: ItemSet,
    support: int,
    classification: Classification,
    db: TransactionDatabase,
) -> str:
    """One output line: `<labels> : <support> <CLASS>`."""
    return f"{db.render(itemset)} : {support} {classification.tag}"
