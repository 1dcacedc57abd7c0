"""Expected program output, computed without the package under test.

Supports come from per-item transaction bitsets (one Python int per item,
one bit per transaction), so this code shares no logic with the package's
miners. Lines follow the README's result format: labels sorted
lexicographically, lines sorted by (cardinality, labels), LF-terminated.
"""

from __future__ import annotations

import json
from typing import Iterator, Sequence

from generate import EventStream


def _tidsets(rows: Sequence[Sequence[str]]) -> tuple[list[str], list[int]]:
    labels = sorted({label for row in rows for label in row})
    index = {label: i for i, label in enumerate(labels)}
    tids = [0] * len(labels)
    for t, row in enumerate(rows):
        for label in row:
            tids[index[label]] |= 1 << t
    return labels, tids


def _text(entries: list[tuple[int, str, int, str]]) -> str:
    entries.sort(key=lambda e: (e[0], e[1]))
    return "".join(f"{rendered} : {support} {tag}\n" for _, rendered, support, tag in entries)


def _dense_lattice(rows: Sequence[Sequence[str]]) -> Iterator[tuple[int, str, int]]:
    """(cardinality, rendered labels, support) of every non-empty item-set."""
    labels, item_tids = _tidsets(rows)
    size = 1 << len(labels)
    tids = [0] * size
    rendered = [""] * size
    cards = [0] * size
    tids[0] = (1 << len(rows)) - 1
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        i = low.bit_length() - 1
        tids[mask] = tids[rest] & item_tids[i]
        # The lowest bit is the smallest label, so it goes first.
        rendered[mask] = labels[i] + " " + rendered[rest] if rest else labels[i]
        cards[mask] = cards[rest] + 1
        yield cards[mask], rendered[mask], tids[mask].bit_count()


def dense_outputs(rows: Sequence[Sequence[str]], sigma: int) -> dict[str, str]:
    """Expected stdout of `mine --emit both`, `frequent` and `classify` at sigma."""
    mine, frequent, classify = [], [], []
    for card, rendered, support in _dense_lattice(rows):
        if support == 0:
            tag = "NONPRESENT"
        elif support < sigma:
            tag = "RARE"
        else:
            tag = "FREQUENT"
        entry = (card, rendered, support, tag)
        classify.append(entry)
        (frequent if tag == "FREQUENT" else mine).append(entry)
    return {"mine": _text(mine), "frequent": _text(frequent), "classify": _text(classify)}


def _present_itemsets(rows: Sequence[Sequence[str]], min_support: int):
    """(labels, support) of every item-set with support >= min_support, depth first."""
    labels, item_tids = _tidsets(rows)

    def extend(prefix: tuple[str, ...], tids: int, start: int):
        for i in range(start, len(labels)):
            joined = tids & item_tids[i]
            support = joined.bit_count()
            if support >= min_support:
                itemset = prefix + (labels[i],)
                yield itemset, support
                yield from extend(itemset, joined, i + 1)

    return extend((), (1 << len(rows)) - 1, 0)


def frequent_output(rows: Sequence[Sequence[str]], min_support: int) -> str:
    """Expected stdout of `frequent --min-support min_support`."""
    entries = [
        (len(itemset), " ".join(itemset), support, "FREQUENT")
        for itemset, support in _present_itemsets(rows, min_support)
    ]
    return _text(entries)


def monitor_outputs(
    stream: EventStream, sigma: int, cycles: int, duration_ms: int
) -> tuple[str, str, int]:
    """Expected (alert stdout, store bytes, window count) of a replay.

    A window opens at the first event not yet consumed and spans `cycles`
    buckets of `duration_ms`; a pattern alerts when it is present but rare
    (support below sigma) in every bucket of its window.
    """
    events = stream.events
    alerts: list[str] = []
    store: list[str] = []
    windows = 0
    i = 0
    while i < len(events):
        start = events[i][0]
        buckets: list[list[tuple[str, ...]]] = [[] for _ in range(cycles)]
        while i < len(events) and events[i][0] < start + cycles * duration_ms:
            ts, items = events[i]
            buckets[(ts - start) // duration_ms].append(items)
            i += 1
        windows += 1
        found: dict[tuple[str, ...], int] = {}
        for bucket in buckets:
            for itemset, support in _present_itemsets(bucket, 1):
                if support < sigma:
                    found[itemset] = found.get(itemset, 0) + 1
        for itemset in sorted(found, key=lambda s: (len(s), " ".join(s))):
            alerted = found[itemset] >= cycles
            if alerted:
                alerts.append(f"ALERT window={start} pattern={' '.join(itemset)} cycles={found[itemset]}\n")
            record = {
                "window_start": start,
                "itemset": list(itemset),
                "cycles_detected": found[itemset],
                "alerted": alerted,
            }
            store.append(json.dumps(record, separators=(",", ":"), ensure_ascii=False) + "\n")
    return "".join(alerts), "".join(store), windows
