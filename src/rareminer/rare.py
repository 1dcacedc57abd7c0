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
level of all three is counted by `evaluate_candidates` into two
`{mask: support}` dicts, below sigma and at or above it; the top-down walk
makes its next level from the first dict's keys. Each walk gives one dict
per cardinality, in ascending mask order, and `_ordered` reads the levels
of all three as `(mask, support)` pairs in output order, building no
object. The public objects are built once, from the counts:
`iter_levels` wraps each counted candidate in one `ItemSet` and each kept
one in one `MinedItemSet`, and `mine_rare` wraps only the results.

The top-down walk makes each level's candidates by one rule: the k-item-sets
all of whose (k+1)-item supersets the level above kept. The rule has two
implementations, and `_lattice_pays` picks one per level from the level's
size, its members' cardinality c and the width |I|. The Counter one counts
each member's one-item reductions, about size * (|I| + 4c) steps. The
lattice one marks the level in an int with one bit per mask below 2^|I|
and rules candidates out with |I| shifts and ORs, about 2^|I| / 18 + 1,200
of the same steps whatever the level's size. The level sizes at which the
two cost the same, measured on random levels with CPython 3.11, against
the sizes at which the rule switches (c: measured / rule):

    14 items   c=3: 78 / 82          c=5: 62 / 63         c=8: 47 / 46
               c=11: 32 / 37
    18 items   c=3: 535 / 526        c=5: 378 / 415       c=10: 267 / 272
               c=15: 217 / 203
    22 items   c=6: 5,957 / 5,092    c=12: 3,337 / 3,346  c=18: 2,572 / 2,492
    24 items   c=6: 32,857 / 19,444  c=8: 16,511 / 16,666 c=13: 12,755 / 12,280
               c=19: 8,733 / 9,333
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, count
from operator import add
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
    """`generate_candidates` on distinct, non-empty masks of one cardinality.

    One rule, two implementations, chosen per level by `_lattice_pays`: a
    sparse level counts its members' one-item reductions, and a dense one is
    marked in a lattice indicator, one bit per mask below 2^width (see
    `_lattice_candidates`). Both return the same list. At mid cardinality
    the two cost the same at about 47 members over 14 items, 267 over 18,
    3,337 over 22 and 12,755 over 24 (the module docstring has the table).
    """
    cardinality = next(iter(masks)).bit_count()
    if _lattice_pays(len(masks), cardinality, width):
        return _lattice_candidates(masks, width)
    # A k-item-set has width - k supersets of k+1 items, so it is a candidate
    # iff the members' one-item reductions, counted by Counter in C, name it
    # that many times.
    supersets = width - (cardinality - 1)
    bits = [1 << i for i in range(width)]
    parents = Counter([mask ^ bit for bit in bits for mask in masks if mask & bit])
    return sorted([c for c, n in parents.items() if n == supersets])


def _lattice_pays(size: int, cardinality: int, width: int) -> bool:
    """Whether a level of `size` masks is cheaper through the lattice indicator.

    The Counter rule takes about one step per member and item, plus four per
    one-item reduction. The lattice indicator's cost hardly depends on the
    level: in those steps, about 2^width / 18 for its 2 * width operations
    on 2^width-bit ints, and 1,200 of fixed overhead. Both constants are
    fitted to the crossover table in the module docstring.
    """
    return size * (width + 4 * cardinality) >= (1 << width) // 18 + 1200


# Entry v of _BYTE_BITS lists the bits set in byte value v, ascending. Every
# CLI run imports this module, and building the table by doubling costs an
# eighth of testing each byte's 8 bits. _NONZERO maps every nonzero byte to 1.
_BYTE_BITS: list[tuple[int, ...]] = [()]
for _bit in range(8):
    _BYTE_BITS += [bits + (_bit,) for bits in _BYTE_BITS]
_NONZERO = bytes([0]) + bytes([1]) * 255


def _lattice_candidates(masks: Collection[int], width: int) -> list[int]:
    """`_candidate_masks` through lattice indicators, in ascending mask order.

    Bit c of an indicator stands for mask c. A k-item-set c lacking item i
    has the superset c + 2^i, so shifting the indicator of the (k+1)-item-sets
    missing from the level down by 2^i marks, at c, each k-item-set that one
    of its supersets rules out. Where c holds i, c + 2^i has at most as many
    items as c, so no k-item-set is marked wrongly. The candidates are the
    k-item-sets that no shift marks, read out of the indicator's bytes.
    """
    k = next(iter(masks)).bit_count() - 1
    size = ((1 << width) + 7) >> 3
    flags = bytearray(size)
    for mask in masks:
        flags[mask >> 3] |= 1 << (mask & 7)
    layer, above = _layers(width, k)
    missing = above ^ int.from_bytes(flags, "little")
    ruled_out = 0
    for i in range(width):
        ruled_out |= missing >> (1 << i)
    found = (layer & ~ruled_out).to_bytes(size, "little")
    # Nonzero byte number n sits at n plus the lengths of the zero runs
    # before it; splitting on the nonzero bytes gives those runs.
    runs = found.translate(_NONZERO).split(b"\x01")
    starts = map(add, accumulate(map(len, runs)), count())
    return [
        at << 3 | b
        for at, byte in zip(starts, found.translate(None, b"\x00"))
        for b in _BYTE_BITS[byte]
    ]


def _layers(width: int, k: int) -> tuple[int, int]:
    """The lattice indicators of the k- and the (k+1)-item masks below 2^width."""
    # Pascal's rule: the j-item masks below 2^(m+1) are those below 2^m, and
    # the (j-1)-item ones there with bit m added. Only the j that can still
    # reach k or k + 1 with the bits left are kept.
    row = {0: 1}
    for m in range(width):
        shift = 1 << m
        low = max(0, k - (width - m - 1))
        row = {j: row.get(j, 0) | row.get(j - 1, 0) << shift for j in range(low, min(k, m) + 2)}
    return row.get(k, 0), row.get(k + 1, 0)


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
    counting step of all three walks: the rare walks keep the first dict,
    Apriori's `iter_supported` the second.
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
    """`iter_levels` on bare masks: each level's k and two `evaluate_candidates` dicts."""
    width = db.width
    candidates = [(1 << width) - 1]
    for k in range(width, 0, -1):
        kept, frequent = evaluate_candidates(candidates, db, sigma)
        yield k, kept, frequent
        if not kept or k == 1:
            return
        candidates = _candidate_masks(kept, width)


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

    Every miner's output order is (cardinality, rendered labels). Each level
    holds one cardinality in ascending mask order, as every walk's levels
    do, and item ids run in descending label order, so each level is read
    backwards. Only when `db._mask_keys` is false, as some label defeats
    the mask order, are the pairs sorted, by `canonical_key`.
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
