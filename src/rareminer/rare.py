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

The two walks here and Apriori's `iter_supported` carry bare masks. Every
level of the two walks here is counted by `evaluate_candidates` into two
`{mask: support}` dicts, below sigma and at or above it; the top-down walk
makes its next level from the first dict's keys. They count subsets of
item-sets already counted, whose tid-lists no AND of kept ones can make,
so each count is a `support_of_mask` call. Apriori counts supersets, each
as one AND of a kept tid-list with an item's (`apriori._extend`). Each
walk gives one dict per cardinality, in ascending mask order, and
`_ordered` reads the levels of all three as `(mask, support)` pairs in
output order, building no object. The public objects are built once, from
the counts: `iter_levels` wraps each counted candidate in one `ItemSet`
and each kept one in one `MinedItemSet`, and `mine_rare` wraps only the
results.

The top-down walk makes each level's candidates by one rule: the k-item-sets
all of whose (k+1)-item supersets the level above kept. `_candidate_masks`
counts each kept member's one-item reductions in a `Counter`; a k-item-set
is a candidate when it is named |I| - k times.

Where the walk's levels are dense, it reads its remaining levels off one
table of all 2^|I| supports (`supports.support_table`): the superset-sum
(zeta) transform of the row histogram (Yates 1937; Bjorklund, Husfeldt,
Kaski & Koivisto, STOC 2007), with each support in a 16-bit lane of one
int, or a 32-bit one when |D| >= 2^15, so that no lane carries; |I|
shift, AND and add passes fill it. The same table gives the candidates of
every later level. At every level the walk has kept exactly the masks of
that cardinality below sigma, as every superset of a mask below sigma is
below it too; so "every (k+1)-superset was kept" means "no (k+1)-superset
reaches sigma". The table marks each mask with a one-item superset that
reaches sigma, in |I| passes over one byte per mask; the unmarked masks
are the candidates, and each is still counted by one `support_of_mask`
call, on a copy of the database that reads the table. `_table_pays`
builds it once the masks the walk has counted, the next level's
candidates included, reach 2^|I| / 24 + 50: at least what the table and
its read-out cost, in masks counted one at a time and made by the
`Counter` rule, so the table never costs more than the walk has already
spent and no run takes much more than twice its walk. That cost against
the rule's count, measured on 400 random rows at sigma 1 with CPython
3.11 (medians of 5 runs; 2 at 20 items, 1 at 22):

    10 items: 52 / 92            12 items: 208 / 220
    14 items: 634 / 732          16 items: 2,524 / 2,780
    18 items: 9,866 / 10,972     20 items: 36,551 / 43,740
    22 items: 157,675 / 174,812

On the benchmark's dense corpus (14 items x 400 rows, sigma 8) the walk
counts its top four levels, 470 masks, one by one and the other 12,993
on the table. A walk that stops one level below a full top, such as that
of every 16-item subset of 20 items at sigma 1, never switches.
"""

from __future__ import annotations

from collections import Counter
from typing import Collection, Iterable, Iterator

from .itemsets import (
    Classification,
    ItemSet,
    MinedItemSet,
    TransactionDatabase,
    _Frozen,
    canonical_key,
    iter_child_masks,
)

EMIT_RARE = "rare"
EMIT_NONPRESENT = "nonpresent"
EMIT_BOTH = "both"
EMIT_CHOICES = (EMIT_RARE, EMIT_NONPRESENT, EMIT_BOTH)


class MiningConfig(_Frozen):
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

    __slots__ = __match_args__ = ("sigma", "pruning_enabled", "emit")

    def __init__(self, sigma: int, pruning_enabled: bool = True, emit: str = EMIT_BOTH):
        if sigma < 1:
            raise ValueError(f"sigma must be at least 1, got {sigma}")
        if emit not in EMIT_CHOICES:
            raise ValueError(f"emit must be one of {EMIT_CHOICES}, got {emit!r}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "pruning_enabled", pruning_enabled)
        object.__setattr__(self, "emit", emit)


class LevelState(_Frozen):
    """Outcome of testing one cardinality level.

    `interesting` holds the level's rare and non-present item-sets (all of
    cardinality `k`, support below sigma); `frequent_record` the candidates
    of the same cardinality that turned out frequent. The two are disjoint
    and together are exactly the candidates tested at this level. The next
    level down is generated from `interesting` alone.
    """

    __slots__ = __match_args__ = ("k", "interesting", "frequent_record")

    def __init__(
        self, k: int, interesting: tuple[MinedItemSet, ...], frequent_record: tuple[ItemSet, ...]
    ):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "interesting", interesting)
        object.__setattr__(self, "frequent_record", frequent_record)


def generate_candidates(level: Collection[ItemSet]) -> list[ItemSet]:
    """The k-item-sets all of whose (k+1)-item supersets are level members.

    Members must have one common width and one common cardinality k+1; the
    result holds each such k-item-set once, in ascending mask order. A lone
    full item-set yields all of its one-item reductions. A width-checked
    shell over the walk's mask-level rule.
    """
    members = list(level)
    if not members:
        return []
    width = members[0].width
    if len({m.width for m in members}) > 1:
        raise ValueError("mixed item-set widths in one level")
    masks = {m.mask for m in members}
    if len({mask.bit_count() for mask in masks}) > 1:
        raise ValueError("mixed cardinalities in one level")
    return [ItemSet(mask, width) for mask in _candidate_masks(masks, width)]


def _candidate_masks(masks: Collection[int], width: int) -> list[int]:
    """`generate_candidates` on distinct, non-empty masks of one cardinality."""
    cardinality = next(iter(masks)).bit_count()
    # A k-item-set has width - k supersets of k+1 items, so it is a candidate
    # iff the members' one-item reductions, counted by Counter in C, name it
    # that many times.
    supersets = width - (cardinality - 1)
    bits = [1 << i for i in range(width)]
    parents = Counter([mask ^ bit for bit in bits for mask in masks if mask & bit])
    return sorted([c for c, n in parents.items() if n == supersets])


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
    candidates: Iterable[int], db: TransactionDatabase, sigma: int
) -> tuple[dict[int, int], dict[int, int]]:
    """Count each candidate mask's exact support and split the level at sigma.

    Returns two `{mask: support}` dicts, both in candidate order: the
    candidates with support below sigma, and the others. It is the one
    counting step of the two rare walks, which keep the first dict;
    Apriori's `iter_supported` counts its candidates by tid-list instead.
    """
    below: dict[int, int] = {}
    above: dict[int, int] = {}
    count = db.support_of_mask
    for mask in candidates:
        if (support := count(mask)) < sigma:
            below[mask] = support
        else:
            above[mask] = support
    return below, above


def iter_levels(db: TransactionDatabase, config: MiningConfig) -> Iterator[LevelState]:
    """Walk the lattice largest cardinality first, yielding each tested level.

    Starts with the full item-set; each later level counts the item-sets one
    item smaller whose every one-item extension the previous level kept.
    Stops after single items, or as soon as a level keeps nothing. The empty
    set is never a candidate. The walk carries masks; each level's public
    objects are built once, from its counts: zero support is non-present,
    the rest below sigma rare.
    """
    width = db.width
    rare, nonpresent = Classification.RARE, Classification.NONPRESENT
    for k, kept, frequent in _top_down(db, config.sigma):
        interesting = [
            MinedItemSet(ItemSet(m, width), s, rare if s else nonpresent) for m, s in kept.items()
        ]
        yield LevelState(k, tuple(interesting), tuple([ItemSet(m, width) for m in frequent]))


def _top_down(
    db: TransactionDatabase, sigma: int
) -> Iterator[tuple[int, dict[int, int], dict[int, int]]]:
    """`iter_levels` on bare masks: each level's k and two `evaluate_candidates` dicts.

    Once the masks counted so far, the next level's candidates included,
    reach `_table_pays`, the walk builds one table of all 2^|I| supports
    (`supports.support_table`), which also gives every later level's
    candidates, and counts them by reading it, through a copy of `db`
    (`TransactionDatabase._reading`).
    """
    width = db.width
    candidates = [(1 << width) - 1]
    counted = 0
    tail: list[list[int]] = []
    for k in range(width, 0, -1):
        kept, frequent = evaluate_candidates(candidates, db, sigma)
        yield k, kept, frequent
        if not kept or k == 1:
            return
        if tail:
            candidates = tail.pop()
            continue
        counted += len(candidates)
        candidates = _candidate_masks(kept, width)
        if _table_pays(counted + len(candidates), width):
            # Imported here, so that runs that build no table never compile it.
            from .supports import support_table

            table, tail = support_table(db, sigma, k - 2)
            db = db._reading(table)


def _table_pays(counted: int, width: int) -> bool:
    """Whether the walk, having counted `counted` masks, has spent what the table costs.

    Building the table and reading out its candidates takes at most about
    as long as counting 2^width / 24 + 50 masks one by one, each made by the
    `Counter` rule (the module docstring has the measurements), so from
    there on the table at most doubles the walk.
    """
    return counted >= (1 << width) // 24 + 50


def mine_rare(db: TransactionDatabase, config: MiningConfig) -> list[MinedItemSet]:
    """Every non-empty item-set over the universe with support below sigma.

    Returns exact supports with each item-set classified rare (support >= 1)
    or non-present (support 0), of the classes `config.emit` names, in
    (cardinality, rendered labels) order. A database whose full item-set is
    frequent yields an empty result: no rare or non-present item-set exists.
    `emit=rare` walks the present item-sets only; `emit=both` walks the
    lattice top-down with `iter_levels` at sigma, and `emit=nonpresent` the
    same walk on bare masks at sigma 1.
    """
    if config.emit != EMIT_BOTH:
        width = db.width
        cls = Classification.RARE if config.emit == EMIT_RARE else Classification.NONPRESENT
        return [MinedItemSet(ItemSet(m, width), s, cls) for m, s in mine_rare_masks(db, config)]
    # `emit=both` walks through this module's `iter_levels`, so that a caller
    # who replaces it, such as a tracer, sees every level.
    levels = [level.interesting for level in iter_levels(db, config)]
    results = [r for level in reversed(levels) for r in reversed(level)]
    if not db._mask_keys:
        results.sort(key=lambda r: canonical_key(r.itemset.mask, db))
    return results


def mine_rare_masks(db: TransactionDatabase, config: MiningConfig) -> list[tuple[int, int]]:
    """`mine_rare`'s results as `(mask, support)` pairs, in the same order, with no object built."""
    if config.emit == EMIT_RARE:
        levels = _present_rare(db, config.sigma)
    else:
        # A non-present item-set is a rare one at sigma 1, whatever sigma is.
        sigma = 1 if config.emit == EMIT_NONPRESENT else config.sigma
        levels = [kept for _, kept, _ in _top_down(db, sigma)]
    return _ordered(reversed(levels), db)


def _ordered(levels: Iterable[dict[int, int]], db: TransactionDatabase) -> list[tuple[int, int]]:
    """`{mask: support}` levels, smallest cardinality first, as pairs in output order.

    Every file subcommand's output order is (cardinality, rendered labels).
    Each level holds one cardinality in ascending mask order, as every
    walk's levels and `classify_all`'s dump split by cardinality do. Item
    ids run in descending label order, so within one cardinality a larger
    mask renders smaller, and each level is read backwards. Only when
    `db._mask_keys` is false, as some label defeats that (see there), are
    the pairs sorted, by `canonical_key`.
    """
    pairs = [pair for level in levels for pair in reversed(level.items())]
    if not db._mask_keys:
        pairs.sort(key=lambda pair: canonical_key(pair[0], db))
    return pairs


def _present_rare(db: TransactionDatabase, sigma: int) -> list[dict[int, int]]:
    """The rare item-sets, from the longest transaction's size down to single items.

    Level k counts the distinct k-item transactions plus the one-item
    reductions of level k+1's rare item-sets, each once. That reaches every
    rare item-set r: every item-set between r and a transaction holding it
    is present and has no more support than r, so it is rare too, and the
    descent from that transaction passes through rare item-sets only down
    to r. A frequent candidate is counted and not kept. Every counted
    item-set is present, and at most |distinct transactions| + sum of |r|
    over the rare results are counted, whatever the width of the universe.
    Returns a `{mask: support}` dict of rare item-sets per cardinality,
    largest first, each in ascending mask order; a level may be empty.
    """
    by_size: dict[int, set[int]] = {}
    for row in db.rows:
        by_size.setdefault(row.bit_count(), set()).add(row)
    levels: list[dict[int, int]] = []
    kept: dict[int, int] = {}
    for k in range(max(by_size, default=0), 0, -1):
        masks = by_size.get(k, set()).union(*map(iter_child_masks, kept))
        kept, _ = evaluate_candidates(sorted(masks), db, sigma)
        levels.append(kept)
    return levels
