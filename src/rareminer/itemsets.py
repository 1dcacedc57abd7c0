"""Item interning, bit-vector item-sets, and transaction databases.

The item universe of a database is its distinct item labels, with ids in
descending label order. An item-set is a fixed-width bit-vector over that
universe, so subset tests and intersections are single integer operations,
and within one cardinality a larger mask renders smaller: a mask compares
like its rendered labels, and ids, masks and ascending-mask orders do not
depend on the order of the input. All types here are immutable after
construction and safe to share across threads; every operation is a pure
function. Two pieces of each database's state are built later, on first
use, and never mutated after they are built: the support index, made on
the first support count, and the text tables, made on the first text
join (`render`, `format_line` and `canonical_key`'s fallback). The
support index holds each item's tid-list (an int with a bit per
transaction) in one 16-entry table per 4 items, whose entry b is the AND
of the tid-lists of nibble b's items; it takes at most 4x the memory of
the plain tid-lists. The text tables hold, per 8 items, each byte's
labels as text, so a mask renders with one lookup per 8 items. Two
threads racing on a first use can at worst build the same piece twice,
as identical copies. A walk that counts most of the lattice counts on a
copy of its database that reads every support from one table (`_reading`);
the database it copied is not changed.

The package's value types derive from `_Frozen`, which gives a class with
`__slots__` the immutability, equality, hashing, repr and pickling of a
frozen dataclass without the import cost of `dataclasses`.
"""

from __future__ import annotations

from enum import Enum
from operator import add, and_, attrgetter, getitem
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

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

    def __init__(self, value: str) -> None:
        # A plain member attribute, read once per output line; `value` is
        # a Python-level descriptor, many times slower to read.
        self.tag = value


def classify_support(support: int, sigma: int) -> Classification:
    """Three-way class: zero support is non-present, below sigma is rare."""
    if support == 0:
        return Classification.NONPRESENT
    if support < sigma:
        return Classification.RARE
    return Classification.FREQUENT


class _Frozen:
    """An immutable value whose fields are its subclass's `__slots__`.

    A subclass sets them in `__init__` with `object.__setattr__`, except the
    two types built once per result, `ItemSet` and `MinedItemSet`: they call
    their slots' own member descriptors (`ItemSet.mask.__set__`, bound once
    at module level), which skips `object.__setattr__`'s lookup of the field
    by name. Copies and pickles are rebuilt by calling the class with the
    fields in slot order.
    Each subclass naming slots gets an `attrgetter` over them, `_fields`:
    the field tuple, as every value type has two or more slots.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._fields = attrgetter(*cls.__slots__)

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
        _set_itemset(self, itemset)
        _set_support(self, support)
        _set_classification(self, classification)


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
        _set_mask(self, mask)
        _set_width(self, width)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def item_ids(self) -> tuple[int, ...]:
        """Member item ids, ascending."""
        return tuple(i for i in range(self.width) if self.mask >> i & 1)


# The slots' member descriptors, which the two per-result types write through.
_set_itemset = MinedItemSet.itemset.__set__
_set_support = MinedItemSet.support.__set__
_set_classification = MinedItemSet.classification.__set__
_set_mask = ItemSet.mask.__set__
_set_width = ItemSet.width.__set__


def iter_child_masks(mask: int) -> Iterator[int]:
    """All subsets of `mask` with exactly one bit cleared, lowest bit first."""
    bits = mask
    while bits:
        low = bits & -bits
        yield mask ^ low
        bits ^= low


class TransactionDatabase:
    """An interned item universe plus each transaction's item-id mask.

    `labels[i]` is item i's label, and the labels strictly descend: ids run
    in descending label order, so a mask compares like its rendered labels.
    `rows[r]` has bit i set when transaction r holds item i; rows keep
    their input order, and each is non-empty and within the universe.
    """

    # Every support, indexed by mask, on the copies `_reading` makes.
    _supports: Optional[Sequence[int]] = None

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
        limit = 1 << len(labels)
        if not all(0 < row < limit for row in rows):
            raise ValueError("every row must be a non-empty item-id mask within the universe")
        self._labels = labels
        self._index = index
        self._rows = rows
        # 4-item tid-list tables, built on the first support count.
        self._tables: Optional[list[list[int]]] = None
        # Per 8 ids, highest first, each byte's labels as text, built on the
        # first text join.
        self._texts: Optional[list[list[str]]] = None
        # Whether `canonical_key` can be its int form; see there.
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

    def format_line(self, mask: int, support: int, classification: Classification) -> str:
        """`format_result_line` of the non-empty item-set `mask`, and a line feed.

        The labels are one text-table lookup per 8 items, so a result line
        needs no `ItemSet` and no loop over its members.
        """
        return f"{self._joined(mask)}: {support} {classification.tag}\n"

    def _joined(self, mask: int) -> str:
        """The rendered labels of `mask` plus one space, one lookup per 8 ids:
        the text tables, highest byte first, map byte b to its labels in
        ascending order, each followed by one space."""
        tables = self._texts
        if tables is None:
            labels = [label + " " for label in self._labels]
            tables = self._texts = _subset_tables(labels, 8, "", add)[::-1]
        return "".join(map(getitem, tables, mask.to_bytes(len(tables), "big")))

    def support_of_mask(self, mask: int) -> int:
        """Number of transactions holding every item of `mask`.

        Counts on a vertical index (Eclat's tid-lists): item i's tid-list is
        an int with bit r set when transaction r holds item i. The index
        keeps one 16-entry table per 4 items, whose entry b is the AND of
        the tid-lists of the items in nibble b (entry 0 is every row), so
        the count is one AND per 4 items up to the mask's highest member,
        then a bit count. The empty mask counts every transaction; a mask
        with a bit outside the universe counts none. A copy made by
        `_reading` has no index: it reads the count from its table.
        """
        tables = self._tables
        if tables is None:
            supports = self._supports
            if supports is not None:
                return 0 if mask >> len(self._labels) else supports[mask]
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

    def _reading(self, supports: Sequence[int]) -> TransactionDatabase:
        """A copy of this database whose `support_of_mask(m)` is `supports[m]`.

        `supports` must hold the support of every mask below 2^|I|. The copy
        builds no tid-list index and shares all other state with this
        database, which is left as it was.
        """
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, _tables=None, _supports=supports)
        return copy

    def _nibble_tables(self) -> list[list[int]]:
        """Per 4 items, entry b is the AND of the tid-lists of nibble b's items.

        A tid-list has bit r set when transaction r holds the item. Entry 0
        of every table is one shared all-rows int, so a full table adds 15
        ints, each no wider than the narrowest tid-list it joins. The plain
        tid-lists are freed, and with the list slots the index takes at
        most 4x their memory.
        """
        tids = [0] * self.width
        for r, mask in enumerate(self._rows):
            bit = 1 << r
            while mask:
                low = mask & -mask
                tids[low.bit_length() - 1] |= bit
                mask ^= low
        return _subset_tables(tids, 4, (1 << len(self._rows)) - 1, and_)


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


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(0-based line index, line) of every line that is not blank or a comment.

    A line ends at '\n' only, and one trailing '\r' is dropped, so CRLF files
    read like LF files while form feeds and Unicode line separators stay
    inside their line. Blank lines and lines starting with '#' are skipped.
    One leading U+FEFF (a UTF-8 byte-order mark) is dropped, so a file
    saved with one reads like the same file without it.
    """
    for i, line in enumerate(text.removeprefix("\ufeff").split("\n")):
        if line.strip() and not line.startswith("#"):
            yield i, line.removesuffix("\r")


def parse_database(text: str, *, max_items: int = DEFAULT_ITEM_CAP) -> TransactionDatabase:
    """Parse transaction text: one transaction per line, whitespace-separated.

    Tokens are arbitrary non-whitespace labels (numeric ids parse unchanged).
    Lines are read by `content_lines`; duplicate tokens within a line
    collapse to one membership. Item ids run in descending label order, so
    a mask compares like its rendered labels and the ids do not depend on
    the order of lines or tokens; each line read becomes one row, in file
    order.

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
    then occur in no transaction) and unknown labels are rejected. Either
    way, item ids run in descending label order, so a mask compares like its
    rendered labels. Empty transactions are skipped: they can never affect
    the support of a non-empty item-set.
    """
    return _build(transactions, universe, max_items)


def _build(
    transactions: Iterable[Iterable[str]],
    universe: Optional[Sequence[str]],
    max_items: int,
) -> TransactionDatabase:
    """Intern label rows, check the universe and the cap, and build the database.

    Labels are interned after those of `universe`, in order of first
    appearance, so a label outside a given universe shows up as an index
    beyond it. Only after the checks pass are the labels given ids in
    descending label order, so that a mask compares like its rendered
    labels, and each row ORed into its mask: a mask is as wide as its
    largest id, so an input far over the cap is refused while it is still
    small lists of indices.
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
    labels = sorted(index, reverse=True)
    bits = [0] * len(labels)
    for item_id, label in enumerate(labels):
        bits[index[label]] = 1 << item_id
    rows = []
    for ids in id_rows:
        mask = 0
        for i in ids:
            mask |= bits[i]
        if mask:
            rows.append(mask)
    return TransactionDatabase(labels, rows)


def canonical_key(mask: int, db: TransactionDatabase) -> Union[int, tuple[int, str]]:
    """Sort key of item-set `mask` in all emitted output: cardinality, then
    rendered labels.

    Ids run in descending label order, so the smallest label sits on the
    highest bit, and within one cardinality a larger mask renders smaller.
    The key is therefore one int, `cardinality << width | (full ^ mask)`,
    with no lookups. That is the rendered order only when no label is empty
    or holds a character at or below U+0020 (the joining space), because
    then no joined label sequence can sort between a label and its
    extensions. A database with such a label gets the `(cardinality,
    rendered labels)` tuple instead, whose text drops the joining space
    after the last label: with it, the label `a` would sort after `a`
    followed by U+0001. The check is made once per database. Keys compare
    only within one database.
    """
    if not db._mask_keys:
        return (mask.bit_count(), db._joined(mask)[:-1])
    width = db.width
    return mask.bit_count() << width | ((1 << width) - 1 ^ mask)


def format_result_line(
    itemset: ItemSet,
    support: int,
    classification: Classification,
    db: TransactionDatabase,
) -> str:
    """One output line: `<labels> : <support> <CLASS>`."""
    return f"{db.render(itemset)} : {support} {classification.tag}"
