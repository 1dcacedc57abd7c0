"""Mining of rare and non-present item-sets, from the full item-set down.

The miner walks the item-set lattice from the single largest item-set (all
interned items) down to single items, one cardinality level at a time.
Adding items to an item-set can only shrink its support, so every superset
of a low-support item-set also has low support: the descent reaches every
rare and every non-present item-set. In the other direction, every subset
of a frequent item-set is frequent, which lets the miner drop candidates
lying below a known frequent item-set without counting them. The number of
rare plus non-present item-sets can approach 2^|I|, and so can this walk.

Rare-only mining (`emit=rare`) has a second route. Every subset of a
present item-set is present, so the rare item-sets are exactly the present
ones with support below sigma, and the bottom-up Apriori walk with minsupp
1 (`apriori.iter_supported`) finds them. Its cost grows with the present
item-sets, not with 2^|I|, but it is not cheaper on every database: on
dense data few item-sets lie below sigma and most are present. So
rare-only mining takes the bottom-up walk only when the longest
transaction proves it cheaper (`_bottom_up_is_cheaper`), and the top-down
walk otherwise; the output is the same either way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Collection, Iterable, Iterator

from .apriori import iter_supported
from .itemsets import (
    Classification,
    ItemSet,
    MinedItemSet,
    TransactionDatabase,
    canonical_key,
    classify_support,
    iter_child_masks,
)

EMIT_RARE = "rare"
EMIT_NONPRESENT = "nonpresent"
EMIT_BOTH = "both"
EMIT_CHOICES = (EMIT_RARE, EMIT_NONPRESENT, EMIT_BOTH)


@dataclass(frozen=True)
class MiningConfig:
    """Thresholds and toggles for one mining run.

    `sigma` is the exclusive maximum support: an item-set is kept when its
    support is strictly below it. Values above |D| + 1 behave exactly like
    |D| + 1 (no support can reach them), which keeps mining legal on
    arbitrarily small buckets such as empty monitoring cycles; front ends
    that want the strict `sigma <= |D| + 1` contract enforce it themselves.
    Pruning applies to the top-down walk, which every mode uses except
    `rare` on sparse data; disabling it never changes the output, only the
    work done.
    """

    sigma: int
    pruning_enabled: bool = True
    emit: str = EMIT_BOTH

    def __post_init__(self) -> None:
        if self.sigma < 1:
            raise ValueError(f"sigma must be at least 1, got {self.sigma}")
        if self.emit not in EMIT_CHOICES:
            raise ValueError(f"emit must be one of {EMIT_CHOICES}, got {self.emit!r}")


@dataclass(frozen=True)
class LevelState:
    """Outcome of testing one cardinality level.

    `interesting` holds the level's rare and non-present item-sets (all of
    cardinality `k`, support below sigma); `frequent_record` the candidates
    of the same cardinality that turned out frequent, which drive pruning
    one level further down. The two are disjoint and together are exactly
    the candidates tested at this level.
    """

    k: int
    interesting: tuple[MinedItemSet, ...]
    frequent_record: tuple[ItemSet, ...]


def generate_candidates(level: Collection[ItemSet]) -> list[ItemSet]:
    """All pairwise intersections of level members that share all but one item.

    Members must have one common width and one common cardinality k+1; the
    result is the deduplicated set of those k-item intersections, in
    ascending mask order.
    """
    members = list(level)
    if not members:
        return []
    width = members[0].width
    cardinality = members[0].cardinality
    for m in members:
        if m.width != width:
            raise ValueError("mixed item-set widths in one level")
        if m.cardinality != cardinality:
            raise ValueError("mixed cardinalities in one level")
    # The intersection of two distinct (k+1)-sets has k items exactly when
    # both are one-item extensions of the same k-set, so a k-set is a
    # candidate iff at least two of its (k+1)-supersets sit in the level.
    # Counting parents per child is linear in the level size where the
    # literal pairwise intersection is quadratic; the output is identical.
    parents: Counter[int] = Counter()
    for mask in {m.mask for m in members}:
        for child in iter_child_masks(mask):
            parents[child] += 1
    return [ItemSet(mask, width) for mask in sorted(c for c, n in parents.items() if n >= 2)]


def prune_candidates(
    candidates: Iterable[ItemSet], frequent_record: Collection[ItemSet]
) -> list[ItemSet]:
    """Drop every candidate that is a subset of a frequent item-set one level up."""
    # Candidates are one item smaller than the record's members, so "subset
    # of a frequent item-set" reduces to "one-bit child of one".
    doomed = {child for f in frequent_record for child in iter_child_masks(f.mask)}
    return [c for c in candidates if c.mask not in doomed]


def evaluate_candidates(
    candidates: Iterable[ItemSet], db: TransactionDatabase, sigma: int
) -> tuple[list[MinedItemSet], list[ItemSet]]:
    """Count each candidate's exact support and split the level's outcome.

    Candidates with support below sigma come back classified (zero support is
    non-present, the rest rare); the others form the frequent record used to
    prune the next level down.
    """
    kept: list[MinedItemSet] = []
    frequent: list[ItemSet] = []
    for itemset in candidates:
        support = db.support_of_mask(itemset.mask)
        if support < sigma:
            kept.append(MinedItemSet(itemset, support, classify_support(support, sigma)))
        else:
            frequent.append(itemset)
    return kept, frequent


def iter_levels(db: TransactionDatabase, config: MiningConfig) -> Iterator[LevelState]:
    """Walk the lattice largest cardinality first, yielding each tested level.

    Starts with the full item-set, then all of its one-item reductions, then
    repeatedly intersects the previous level's survivors, pruning candidates
    below recorded frequent item-sets. Stops after single items, or as soon
    as a level has no survivors. The empty set is never a candidate.
    """
    width = db.width
    full = ItemSet.full(width)
    candidates = [full]
    for k in range(width, 0, -1):
        kept, frequent = evaluate_candidates(candidates, db, config.sigma)
        yield LevelState(k, tuple(kept), tuple(frequent))
        if not kept:
            return
        if k == width:
            # Seed level |I|-1 with every one-item reduction of the full item-set.
            candidates = [ItemSet(mask, width) for mask in sorted(iter_child_masks(full.mask))]
        else:
            candidates = generate_candidates([m.itemset for m in kept])
            if config.pruning_enabled:
                candidates = prune_candidates(candidates, frequent)


def mine_rare(db: TransactionDatabase, config: MiningConfig) -> list[MinedItemSet]:
    """Every non-empty item-set over the universe with support below sigma.

    Returns exact supports with each item-set classified rare (support >= 1)
    or non-present (support 0), filtered by `config.emit` and sorted by
    (cardinality, rendered labels). A database whose full item-set is
    frequent yields an empty result: no rare or non-present item-set exists.
    The lattice is walked top-down with `iter_levels`, except for
    `emit=rare` on a database where the bottom-up walk over the present
    item-sets is sure to count fewer item-sets.
    """
    if config.emit == EMIT_RARE and _bottom_up_is_cheaper(db):
        results = [
            MinedItemSet(itemset, support, Classification.RARE)
            for itemset, support in iter_supported(db, 1)
            if support < config.sigma
        ]
    else:
        results = [r for level in iter_levels(db, config) for r in level.interesting]
        if config.emit == EMIT_RARE:
            results = [r for r in results if r.support > 0]
        elif config.emit == EMIT_NONPRESENT:
            results = [r for r in results if r.support == 0]
    results.sort(key=lambda r: canonical_key(r.itemset, db))
    return results


def _bottom_up_is_cheaper(db: TransactionDatabase) -> bool:
    """Whether the bottom-up walk's most counts are fewer than the top-down walk's least.

    With L the length of the longest transaction, no item-set of more than
    L items is present. The bottom-up walk counts a candidate only when its
    one-item reductions are present, so never one of more than L + 1
    items. The top-down walk counts every item-set of more than L items:
    all are non-present, so none is pruned.
    """
    width = db.width
    longest = max((t.items.cardinality for t in db.transactions), default=0)
    bottom_up_most = sum(comb(width, k) for k in range(1, min(longest + 1, width) + 1))
    top_down_least = sum(comb(width, k) for k in range(longest + 1, width + 1))
    return bottom_up_most < top_down_least
