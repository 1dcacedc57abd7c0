"""Classical frequent item-set mining, from single items up.

Level-wise Apriori search in the style of Agrawal & Srikant (VLDB 1994):
count single items, then repeatedly join the frequent k-sets into (k+1)-
candidates and count them. The join extends each frequent k-set by one
item above its highest member and keeps the extension only when all of
its one-item reductions are frequent k-sets, so every candidate is
generated once and none has an infrequent k-subset. The minimum support
threshold is inclusive, so mining with minsupp equal to the rare miner's
exclusive maximum makes the two outputs partition the lattice of
non-empty item-sets.

The walk, `iter_supported`, carries bare masks and counts by tid-list
reuse, as Eclat does (Zaki, "Scalable algorithms for association mining",
IEEE TKDE 2000), inside the level-wise join: it keeps the tid-list of each
frequent k-set until that set's extensions are counted, and counts the
candidate X | {i} as `(tid(X) & tid(i)).bit_count()`, one AND whatever the
width. The item tid-lists are the database's support index entries. At
most two levels of tid-lists are alive at once, so the walk holds at most
(|L_k| + |L_k+1|) x ceil(|D| / 8) bytes of them beyond the index. The join
is made per member, with one AND of item bitmasks per member item
(`_join_bits`), so its Python steps grow with the members' sizes, not with
|I|.
"""

from __future__ import annotations

from typing import Collection, Iterator

# The benchmark's tracer replaces `canonical_key` here, so it stays bound, unused.
from .itemsets import (
    Classification,
    ItemSet,
    MinedItemSet,
    TransactionDatabase,
    canonical_key,
)
from .rare import _ordered


def join_candidates(frequent: Collection[ItemSet]) -> list[ItemSet]:
    """Join k-sets into (k+1)-candidates whose k-subsets are all members.

    Each member is extended by one item above its highest bit, so no
    candidate is generated twice; an extension survives only when every
    one-item reduction of it is a member. Candidates come back in ascending
    mask order. A width-checked shell over the walk's mask-level join.
    """
    members = list(frequent)
    if not members:
        return []
    width = members[0].width
    if any(m.width != width for m in members):
        raise ValueError("mixed item-set widths")
    joined = _join_bits({m.mask for m in members}, width)
    candidates = [mask | 1 << i for mask, bits in joined.items() for i in range(width) if bits >> i & 1]
    return [ItemSet(mask, width) for mask in sorted(candidates)]


def _join_bits(masks: Collection[int], width: int) -> dict[int, int]:
    """The join on distinct masks of one cardinality, by member: `{mask: bits}`
    for each member with a candidate, where bit i of `bits` is set when i is
    above the member's highest item and `mask | 1 << i` is a candidate.

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


def iter_supported(db: TransactionDatabase, minsupp: int) -> Iterator[dict[int, int]]:
    """Every non-empty item-set with support >= minsupp, as `{mask: support}` levels.

    Level-wise from single items up: each level's supported k-sets are
    joined into the (k+1)-candidates to count next, and the walk stops at
    the first level with none. Yields one non-empty dict per cardinality,
    ascending, each in ascending mask order. Every counted candidate has
    all its one-item reductions supported, so the work grows with the
    number of supported item-sets, not with 2^|I|; with minsupp 1 it yields
    exactly the present item-sets.

    Each candidate costs one AND (`_extend`), with item tid-lists read off
    the database's support index, built on first use. The single items are
    the extensions of the empty set, whose tid-list holds every row.
    """
    if minsupp < 1:
        raise ValueError(f"minsupp must be at least 1, got {minsupp}")
    tables = db._support_index()
    items = {1 << i: tables[i >> 2][1 << (i & 3)] for i in range(db.width)}
    level, tids = {0: len(db)}, {0: (1 << len(db)) - 1}
    while True:
        level, tids = _extend(level, tids, items, minsupp)
        if not level:
            return
        yield level


def _extend(
    level: dict[int, int], tids: dict[int, int], items: dict[int, int], minsupp: int
) -> tuple[dict[int, int], dict[int, int]]:
    """Count the join of one level: the supported (k+1)-sets and their tid-lists.

    `level` holds the supported k-sets, `tids` each one's tid-list, and
    `items` each item's, keyed by the item's bit. Each member's candidates
    (`_join_bits`) are counted as the member's tid-list ANDed with the added
    item's, then the member's tid-list is dropped, which leaves `tids`
    empty. Returns the supported candidates as `{mask: support}`, in
    ascending mask order, and as `{mask: tid-list}`.
    """
    supported: dict[int, int] = {}
    kept: dict[int, int] = {}
    joined = _join_bits(level, len(items))
    while tids:
        mask, tid = tids.popitem()
        bits = joined.get(mask, 0)
        while bits:
            bit = bits & -bits
            bits ^= bit
            if (support := (extended := tid & items[bit]).bit_count()) >= minsupp:
                supported[mask | bit] = support
                kept[mask | bit] = extended
    return dict(sorted(supported.items())), kept


def mine_frequent(db: TransactionDatabase, minsupp: int) -> list[MinedItemSet]:
    """Exactly the non-empty item-sets with support >= minsupp (inclusive).

    Results carry exact supports, in (cardinality, rendered labels) order:
    `rare._ordered` reads the levels of `iter_supported` in that order, and
    each result gets one `ItemSet`.
    """
    width, frequent = db.width, Classification.FREQUENT
    pairs = _ordered(iter_supported(db, minsupp), db)
    return [MinedItemSet(ItemSet(m, width), s, frequent) for m, s in pairs]
