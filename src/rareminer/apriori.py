"""Classical frequent item-set mining, from single items up.

Level-wise Apriori search in the style of Agrawal & Srikant (VLDB 1994):
count single items, then repeatedly join the frequent k-sets into (k+1)-
candidates and count them, growing toward larger item-sets. The join
works on bit-vector masks: each frequent k-set is extended by one item
above its highest member, and the extension is kept only when all of its
one-item reductions are frequent k-sets, so every candidate is generated
once and none has an infrequent k-subset. The minimum support threshold
is inclusive, so mining with minsupp equal to the rare miner's exclusive
maximum makes the two outputs partition the lattice of non-empty
item-sets.
"""

from __future__ import annotations

from typing import Collection

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


def mine_frequent(db: TransactionDatabase, minsupp: int) -> list[MinedItemSet]:
    """Exactly the non-empty item-sets with support >= minsupp (inclusive).

    Results carry exact supports and come back sorted by (cardinality,
    rendered labels).
    """
    if minsupp < 1:
        raise ValueError(f"minsupp must be at least 1, got {minsupp}")
    results: list[MinedItemSet] = []
    level = [ItemSet.from_ids([i], db.width) for i in range(db.width)]
    while level:
        frequent_here = []
        for itemset in level:
            support = db.support(itemset)
            if support >= minsupp:
                frequent_here.append(itemset)
                results.append(MinedItemSet(itemset, support, Classification.FREQUENT))
        if not frequent_here:
            break
        level = join_candidates(frequent_here)
    results.sort(key=lambda r: canonical_key(r.itemset, db))
    return results
