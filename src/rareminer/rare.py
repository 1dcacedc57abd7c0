"""Mining of rare and non-present item-sets, from the full item-set down.

The miner walks the item-set lattice from the single largest item-set (all
interned items) down to single items, one cardinality level at a time.
Adding items to an item-set can only shrink its support, so every superset
of a low-support item-set also has low support: the descent reaches every
rare and every non-present item-set. So a k-item-set can lie below sigma
only when all of its (k+1)-item supersets do: each level counts only those,
and nothing is pruned after generation. The number of rare plus
non-present item-sets can approach 2^|I|, and so can this walk.

Rare-only mining (`emit=rare`) walks top-down over the present item-sets
only: every rare item-set is a transaction or a one-item reduction of a
rare item-set one item larger. It counts each distinct transaction and
each one-item reduction of a rare result once, so its cost is bounded by
the input and the output, not by 2^|I|.

Non-present mining (`emit=nonpresent`) is the top-down walk at sigma 1:
support 0 does not depend on sigma, so neither does its work. Each mode
walks only what it can emit plus the border that stops it, and no result
is filtered after a walk.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Collection, Iterable, Iterator

from .itemsets import (
    Classification,
    ItemSet,
    MinedItemSet,
    TransactionDatabase,
    canonical_key,
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
    The `nonpresent` walk runs at sigma 1 whatever `sigma` is: support 0 is
    non-present at every sigma. `pruning_enabled` has no effect: no walk
    generates a candidate that a prune step could drop.
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
    of the same cardinality that turned out frequent. The two are disjoint
    and together are exactly the candidates tested at this level. The next
    level down is generated from `interesting` alone.
    """

    k: int
    interesting: tuple[MinedItemSet, ...]
    frequent_record: tuple[ItemSet, ...]


def generate_candidates(level: Collection[ItemSet]) -> list[ItemSet]:
    """The k-item-sets all of whose (k+1)-item supersets are level members.

    Members must have one common width and one common cardinality k+1; the
    result holds each such k-item-set once, in ascending mask order. A lone
    full item-set yields all of its one-item reductions.
    """
    members = list(level)
    if not members:
        return []
    width = members[0].width
    if len({m.width for m in members}) > 1:
        raise ValueError("mixed item-set widths in one level")
    masks = {m.mask for m in members}
    cardinalities = {mask.bit_count() for mask in masks}
    if len(cardinalities) > 1:
        raise ValueError("mixed cardinalities in one level")
    # A k-item-set has width - k supersets of k+1 items, so it is a candidate
    # iff the members' one-item reductions, counted by Counter in C, name it
    # that many times.
    supersets = width - (cardinalities.pop() - 1)
    bits = [1 << i for i in range(width)]
    parents = Counter([mask ^ bit for bit in bits for mask in masks if mask & bit])
    return [ItemSet(mask, width) for mask in sorted([c for c, n in parents.items() if n == supersets])]


def prune_candidates(
    candidates: Iterable[ItemSet], frequent_record: Collection[ItemSet]
) -> list[ItemSet]:
    """Drop every candidate that is a subset of a frequent item-set one level up.

    No walk calls this: `generate_candidates` output never holds a child of
    the level's frequent record, so this returns it unchanged.
    """
    # Candidates are one item smaller than the record's members, so "subset
    # of a frequent item-set" reduces to "one-bit child of one".
    doomed = {child for f in frequent_record for child in iter_child_masks(f.mask)}
    return [c for c in candidates if c.mask not in doomed]


def evaluate_candidates(
    candidates: Iterable[ItemSet], db: TransactionDatabase, sigma: int
) -> tuple[list[MinedItemSet], list[ItemSet]]:
    """Count each candidate's exact support and split the level's outcome.

    Candidates with support below sigma come back classified (zero support is
    non-present, the rest rare); the others form the level's frequent record.
    """
    kept: list[MinedItemSet] = []
    frequent: list[ItemSet] = []
    count = db.support_of_mask
    rare, nonpresent = Classification.RARE, Classification.NONPRESENT
    for itemset in candidates:
        support = count(itemset.mask)
        if support < sigma:
            kept.append(MinedItemSet(itemset, support, rare if support else nonpresent))
        else:
            frequent.append(itemset)
    return kept, frequent


def iter_levels(db: TransactionDatabase, config: MiningConfig) -> Iterator[LevelState]:
    """Walk the lattice largest cardinality first, yielding each tested level.

    Starts with the full item-set; each later level counts the item-sets one
    item smaller whose every one-item extension the previous level kept.
    Stops after single items, or as soon as a level keeps nothing. The empty
    set is never a candidate.
    """
    candidates = [ItemSet.full(db.width)]
    for k in range(db.width, 0, -1):
        kept, frequent = evaluate_candidates(candidates, db, config.sigma)
        yield LevelState(k, tuple(kept), tuple(frequent))
        if not kept:
            return
        candidates = generate_candidates([m.itemset for m in kept])


def mine_rare(db: TransactionDatabase, config: MiningConfig) -> list[MinedItemSet]:
    """Every non-empty item-set over the universe with support below sigma.

    Returns exact supports with each item-set classified rare (support >= 1)
    or non-present (support 0), of the classes `config.emit` names, sorted by
    (cardinality, rendered labels). A database whose full item-set is
    frequent yields an empty result: no rare or non-present item-set exists.
    `emit=rare` walks the present item-sets only; `emit=both` walks the
    lattice with `iter_levels` at sigma, and `emit=nonpresent` at sigma 1.
    """
    if config.emit == EMIT_RARE:
        results = _mine_present_rare(db, config.sigma)
    else:
        # A non-present item-set is a rare one at sigma 1, whatever sigma is.
        walk = replace(config, sigma=1) if config.emit == EMIT_NONPRESENT else config
        results = [r for level in iter_levels(db, walk) for r in level.interesting]
    results.sort(key=lambda r: canonical_key(r.itemset, db))
    return results


def _mine_present_rare(db: TransactionDatabase, sigma: int) -> list[MinedItemSet]:
    """The rare item-sets, from the longest transaction's size down to single items.

    Level k counts the distinct k-item transactions plus the one-item
    reductions of level k+1's rare item-sets, each once. That reaches every
    rare item-set r: every item-set between r and a transaction holding it
    is present and has no more support than r, so it is rare too, and the
    descent from that transaction passes through rare item-sets only down
    to r. A frequent candidate is counted and not kept. Every counted
    item-set is present, and at most |distinct transactions| + sum of |r|
    over the rare results are counted, whatever the width of the universe.
    Each level is a {mask: support} dict of its rare item-sets, and an
    `ItemSet` is built only for a result, once the walk is done.
    """
    count = db.support_of_mask
    by_size: dict[int, set[int]] = {}
    for row in db.rows:
        by_size.setdefault(row.bit_count(), set()).add(row)
    rare: dict[int, int] = {}
    kept: dict[int, int] = {}
    for k in range(max(by_size, default=0), 0, -1):
        masks = by_size.get(k, set()).union(*map(iter_child_masks, kept))
        kept = {m: s for m in masks if (s := count(m)) < sigma}
        rare.update(kept)
    width = db.width
    return [MinedItemSet(ItemSet(m, width), s, Classification.RARE) for m, s in rare.items()]
