"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and returns the exact text
the program under test receives, plus what the benchmark needs to check
the program's output. Only the standard library is used, and the same seed
always gives the same bytes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Dense corpus: 14 items, 400 transactions, every item in exactly half of them.
DENSE_ITEMS = 14
DENSE_TRANSACTIONS = 400
DENSE_P = 0.5

# Zipf corpus: 24 items with popularity 1/(j+1), geometric lengths of mean 4
# cut at 16 draws.
ZIPF_ITEMS = 24
ZIPF_TRANSACTIONS = 5000
ZIPF_MEAN_LENGTH = 4
ZIPF_MAX_LENGTH = 16

# Monitor stream geometry. Cycle 0 of each window has 11 active items and
# cycles 1 and 2 have 10, so every window mines the same lattice sizes and
# window latency does not depend on which seed drew which widths.
MONITOR_POOL = 64
MONITOR_WINDOWS = 8
MONITOR_CYCLES = 3
MONITOR_CYCLE_MS = 1000
MONITOR_EVENTS_PER_CYCLE = 150
MONITOR_ACTIVE = (11, 10, 10)
MONITOR_BASE_MS = 1_000_000
MONITOR_MALFORMED_SHARE = 0.005


@dataclass(frozen=True)
class Corpus:
    """A transaction file's text and its transactions as label lists."""

    text: str
    rows: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class EventStream:
    """An event file's text, its well-formed events and its malformed count."""

    text: str
    events: tuple[tuple[int, tuple[str, ...]], ...]
    malformed: int
    cycle_widths: tuple[int, ...]


def _corpus(rows: list[list[str]]) -> Corpus:
    text = "".join(" ".join(row) + "\n" for row in rows)
    return Corpus(text, tuple(tuple(row) for row in rows))


def dense_corpus(seed: int) -> Corpus:
    """14 items x 400 transactions; each item in a seeded share DENSE_P of them.

    Every item has exactly the same support, and the seed picks which
    transactions hold it. With each item present independently instead,
    one item's support moved every item-set that holds it, and the number
    of rare results, and so the work, varied by about 8% from seed to seed.
    """
    rng = random.Random(f"dense-{seed}")
    labels = [f"d{j:02d}" for j in range(DENSE_ITEMS)]
    per_item = round(DENSE_TRANSACTIONS * DENSE_P)
    while True:
        rows: list[list[str]] = [[] for _ in range(DENSE_TRANSACTIONS)]
        for label in labels:
            for t in rng.sample(range(DENSE_TRANSACTIONS), per_item):
                rows[t].append(label)
        # An empty transaction is not a valid input line; draw again.
        if all(rows):
            break
    for row in rows:
        # Shuffled so that interning order differs from label order.
        rng.shuffle(row)
    return _corpus(rows)


def zipf_corpus(seed: int) -> Corpus:
    """24 Zipf-weighted items x 5,000 transactions of geometric length.

    The lengths are the geometric distribution's quantiles, cut at
    ZIPF_MAX_LENGTH, in an order the seed shuffles: the few longest
    transactions make most of the frequent item-sets, so drawing their
    lengths at random moved the work of a seed by about 10% from seed to
    seed. Each item gets its Zipf share of all the draws, exactly (largest
    remainder), and the seed deals the shuffled draws out to the
    transactions; with every draw random instead, the candidates counted
    still spread by 5.6% (interquartile range over median, 20 seeds),
    against 3.5% this way.
    """
    rng = random.Random(f"zipf-{seed}")
    labels = [f"z{j:02d}" for j in range(ZIPF_ITEMS)]
    weights = [1 / (j + 1) for j in range(ZIPF_ITEMS)]
    keep = math.log(1 - 1 / ZIPF_MEAN_LENGTH)
    lengths = [
        min(ZIPF_MAX_LENGTH, max(1, math.ceil(math.log(1 - (i + 0.5) / ZIPF_TRANSACTIONS) / keep)))
        for i in range(ZIPF_TRANSACTIONS)
    ]
    rng.shuffle(lengths)
    total = sum(lengths)
    shares = [total * w / sum(weights) for w in weights]
    counts = [math.floor(share) for share in shares]
    by_remainder = sorted(range(ZIPF_ITEMS), key=lambda j: counts[j] - shares[j])
    for j in by_remainder[: total - sum(counts)]:
        counts[j] += 1
    draws = [label for label, count in zip(labels, counts) for _ in range(count)]
    rng.shuffle(draws)
    # Repeats within a transaction collapse, so popular items recur and
    # many transactions come out identical.
    rows, start = [], 0
    for length in lengths:
        rows.append(list(dict.fromkeys(draws[start:start + length])))
        start += length
    return _corpus(rows)


def monitor_stream(seed: int) -> EventStream:
    """Windows of sparse events with a planted rare triple in half of them.

    Each cycle starts with an event exactly on its boundary, so replay opens
    every window on a cycle boundary and no cycle mixes two active sets.
    In a planted window the same three items occur together exactly once in
    every cycle, which makes them rare in all cycles and raises an alert.
    """
    rng = random.Random(f"monitor-{seed}")
    pool = [f"e{j:02d}" for j in range(MONITOR_POOL)]
    planted_windows = set(rng.sample(range(MONITOR_WINDOWS), MONITOR_WINDOWS // 2))
    events: list[tuple[int, tuple[str, ...]]] = []
    widths: list[int] = []
    for window in range(MONITOR_WINDOWS):
        triple = tuple(rng.sample(pool, 3)) if window in planted_windows else ()
        for cycle in range(MONITOR_CYCLES):
            size = MONITOR_ACTIVE[cycle]
            others = [label for label in pool if label not in triple]
            active = list(triple) + rng.sample(others, size - len(triple))
            start = MONITOR_BASE_MS + (window * MONITOR_CYCLES + cycle) * MONITOR_CYCLE_MS
            offsets = [0] + sorted(
                rng.randrange(1, MONITOR_CYCLE_MS)
                for _ in range(MONITOR_EVENTS_PER_CYCLE - 1)
            )
            planted_at = rng.randrange(MONITOR_EVENTS_PER_CYCLE) if triple else -1
            seen: set[str] = set()
            for i, offset in enumerate(offsets):
                if i == planted_at:
                    items = list(triple)
                    rng.shuffle(items)
                else:
                    items = rng.sample(active, rng.choice((2, 3)))
                    while triple and set(items) == set(triple):
                        items = rng.sample(active, 3)
                seen.update(items)
                events.append((start + offset, tuple(items)))
            if len(seen) > size:
                raise RuntimeError(
                    f"cycle {window}.{cycle} holds {len(seen)} distinct items, "
                    f"more than its {size} active ones"
                )
            widths.append(len(seen))

    lines = [f"{ts} {' '.join(items)}" for ts, items in events]
    malformed = round(len(events) * MONITOR_MALFORMED_SHARE)
    # Insert from the back so earlier positions stay valid; each kind is
    # one the parser must skip and count: a non-integer timestamp, a
    # negative one, and a timestamp with no items.
    positions = sorted(rng.sample(range(len(lines) + 1), malformed), reverse=True)
    for n, pos in enumerate(positions):
        ts, items = events[min(pos, len(events) - 1)]
        kind = n % 3
        if kind == 0:
            bad = f"t{ts} {' '.join(items)}"
        elif kind == 1:
            bad = f"-{ts} {items[0]}"
        else:
            bad = f"{ts}"
        lines.insert(pos, bad)
    text = "".join(line + "\n" for line in lines)
    return EventStream(text, tuple(events), malformed, tuple(widths))
