"""Classical frequent item-set mining, from single items up.

Level-wise Apriori search in the style of Agrawal & Srikant (VLDB 1994):
count single items, then repeatedly join the frequent k-sets into (k+1)-
candidates and count them. The walk, `iter_supported`, carries bare masks
and counts each level with the rare walks' `evaluate_candidates`. The join
extends each frequent k-set by one item above its highest member and keeps
the extension only when all of its one-item reductions are frequent
k-sets, so every candidate is generated once and none has an infrequent
k-subset. The minimum support threshold is inclusive, so mining with
minsupp equal to the rare miner's exclusive maximum makes the two outputs
partition the lattice of non-empty item-sets.
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
from .rare import evaluate_candidates


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
    return [ItemSet(mask, width) for mask in _join_masks({m.mask for m in members}, width)]


def _join_masks(masks: Collection[int], width: int) -> list[int]:
    """`join_candidates` on distinct masks of one cardinality."""
    kept = []
    for mask in masks:
        for item in range(mask.bit_length(), width):
            candidate = mask | 1 << item
            if all(child in masks for child in iter_child_masks(candidate)):
                kept.append(candidate)
    return sorted(kept)


def iter_supported(db: TransactionDatabase, minsupp: int) -> Iterator[dict[int, int]]:
    """Every non-empty item-set with support >= minsupp, as `{mask: support}` levels.

    Level-wise from single items up: each level's supported k-sets are
    joined into the (k+1)-candidates to count next, and the walk stops at
    the first level with none. Yields one non-empty dict per cardinality,
    ascending, each in ascending mask order. Every counted candidate has
    all its one-item reductions supported, so the work grows with the
    number of supported item-sets, not with 2^|I|; with minsupp 1 it yields
    exactly the present item-sets.
    """
    if minsupp < 1:
        raise ValueError(f"minsupp must be at least 1, got {minsupp}")
    width = db.width
    candidates = [1 << i for i in range(width)]
    while supported := evaluate_candidates(candidates, db, minsupp)[1]:
        yield supported
        candidates = _join_masks(supported, width)


def mine_frequent(db: TransactionDatabase, minsupp: int) -> list[MinedItemSet]:
    """Exactly the non-empty item-sets with support >= minsupp (inclusive).

    Results carry exact supports, in (cardinality, rendered labels) order:
    each level of `iter_supported` is read in descending mask order, and
    each result gets one `ItemSet`. Only when `db._mask_keys` is false are
    they sorted, by `canonical_key`.
    """
    width, frequent = db.width, Classification.FREQUENT
    results = [
        MinedItemSet(ItemSet(mask, width), support, frequent)
        for level in iter_supported(db, minsupp)
        for mask, support in reversed(level.items())
    ]
    if not db._mask_keys:
        results.sort(key=lambda r: canonical_key(r.itemset, db))
    return results
