"""Classical frequent item-set mining, from single items up.

Level-wise Apriori search in the style of Agrawal & Srikant (VLDB 1994):
count single items, then repeatedly join the frequent k-sets into (k+1)-
candidates and count them, growing toward larger item-sets. The walk is
one generator, `iter_supported`, which `mine_frequent` wraps. The join
works on bit-vector masks: each frequent k-set is extended by one item
above its highest member, and the extension is kept only when all of its
one-item reductions are frequent k-sets, so every candidate is generated
once and none has an infrequent k-subset. The minimum support threshold
is inclusive, so mining with minsupp equal to the rare miner's exclusive
maximum makes the two outputs partition the lattice of non-empty
item-sets.
"""

from __future__ import annotations

from typing import Collection, Iterator

from .itemsets import (
    Classification,
    ItemSet,
    MinedItemSet,
    TransactionDatabase,
    canonical_key,
    iter_child_masks,
)


def join_candidates(frequent: Collection[ItemSet]) -> list[ItemSet]:
    """Join k-sets into (k+1)-candidates whose k-subsets are all members.

    Each member is extended by one item above its highest bit, so no
    candidate is generated twice; an extension survives only when every
    one-item reduction of it is a member. Candidates come back in ascending
    mask order.
    """
    members = list(frequent)
    if not members:
        return []
    width = members[0].width
    for m in members:
        if m.width != width:
            raise ValueError("mixed item-set widths")
    masks = {m.mask for m in members}
    kept = []
    for mask in masks:
        for item in range(mask.bit_length(), width):
            candidate = mask | 1 << item
            if all(child in masks for child in iter_child_masks(candidate)):
                kept.append(candidate)
    return [ItemSet(mask, width) for mask in sorted(kept)]


def iter_supported(db: TransactionDatabase, minsupp: int) -> Iterator[tuple[ItemSet, int]]:
    """Every non-empty item-set with support >= minsupp, with its support.

    Level-wise from single items up: each level's supported k-sets are
    joined into the (k+1)-candidates to count next, and the walk stops at
    the first level with none. Yields by ascending cardinality, ascending
    mask within a level. Every counted candidate has all its one-item
    reductions supported, so the work grows with the number of supported
    item-sets, not with 2^|I|; with minsupp 1 it yields exactly the present
    item-sets.
    """
    if minsupp < 1:
        raise ValueError(f"minsupp must be at least 1, got {minsupp}")
    level = [ItemSet(1 << i, db.width) for i in range(db.width)]
    while level:
        supported = []
        for itemset in level:
            support = db.support_of_mask(itemset.mask)
            if support >= minsupp:
                supported.append(itemset)
                yield itemset, support
        if not supported:
            return
        level = join_candidates(supported)


def mine_frequent(db: TransactionDatabase, minsupp: int) -> list[MinedItemSet]:
    """Exactly the non-empty item-sets with support >= minsupp (inclusive).

    Results carry exact supports and come back sorted by (cardinality,
    rendered labels).
    """
    results = [
        MinedItemSet(itemset, support, Classification.FREQUENT)
        for itemset, support in iter_supported(db, minsupp)
    ]
    results.sort(key=lambda r: canonical_key(r.itemset, db))
    return results
