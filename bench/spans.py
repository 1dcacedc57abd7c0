"""Outside-in tracing: spans around calls into the package's public functions.

The tracer replaces public functions at the module attribute each caller
looks up (and two methods on `TransactionDatabase`) with wrappers that
record a span per call: name, start, end and the span that was open when
the call began. A span's self time is its duration minus the time its
child spans cover. Nothing inside the package is changed; every wrapper
is removed again when `instrumented` exits.

Work counts are taken outside the spans: `iter_levels` is consumed level
by level, and each level's generated and pruned candidates are recomputed
from the previous level with the package's public `generate_candidates`
and `prune_candidates` after the traced call has returned.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator

import rareminer.apriori as apriori
import rareminer.cli as cli
import rareminer.monitor as monitor
import rareminer.rare as rare
from rareminer.itemsets import TransactionDatabase

LEVEL = "rare.level"


class Tracer:
    """Spans kept in memory as parallel arrays, plus observed call results."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.observed: dict[str, list] = defaultdict(list)
        # One entry per iter_levels walk: its config and the levels it yielded.
        self.walks: list[tuple[rare.MiningConfig, list[rare.LevelState]]] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """`fn` with a span per call; `observe(args, result)` runs after the span."""
        tracer_open, tracer_close, observed = self._open, self._close, self.observed[name]

        def traced(*args, **kwargs):
            index = tracer_open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer_close(index)
            if observe is not None:
                observed.append(observe(args, result))
            return result

        return traced

    def wrap_levels(self, fn: Callable[..., Iterator[rare.LevelState]]) -> Callable:
        """A level-by-level consumer of `iter_levels`: one span per level produced."""

        def traced(db, config):
            levels: list[rare.LevelState] = []
            self.walks.append((config, levels))
            walk = fn(db, config)
            while True:
                index = self._open(LEVEL)
                try:
                    level = next(walk)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                levels.append(level)
                yield level

        return traced

    def summary(self) -> "SpanSummary":
        """Calls, total and self time per span name and per (name, parent name)."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        covered = [0.0] * len(names)
        durations = [ends[i] - starts[i] for i in range(len(names))]
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += durations[i]
        out = SpanSummary()
        for i, name in enumerate(names):
            parent = parents[i]
            key = (name, names[parent] if parent >= 0 else "")
            self_time = durations[i] - covered[i]
            for bucket in (name, key):
                out.calls[bucket] += 1
                out.total[bucket] += durations[i]
                out.self[bucket] += self_time
        return out


class SpanSummary:
    """Span aggregates keyed by name and by (name, parent name)."""

    def __init__(self) -> None:
        self.calls: dict = defaultdict(int)
        self.total: dict = defaultdict(float)
        self.self: dict = defaultdict(float)


def _length(args, result) -> int:
    return len(result)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    patches = [
        (TransactionDatabase, "support_of_mask", "itemsets.support_of_mask", None),
        (TransactionDatabase, "render", "itemsets.render", None),
        (rare, "canonical_key", "itemsets.canonical_key", None),
        (apriori, "canonical_key", "itemsets.canonical_key", None),
        (cli, "canonical_key", "itemsets.canonical_key", None),
        (cli, "format_result_line", "itemsets.format_result_line", None),
        (cli, "parse_database", "itemsets.parse_database", None),
        (monitor, "database_from_transactions", "itemsets.database_from_transactions",
         lambda args, db: db.width),
        (cli, "mine_rare", "rare.mine_rare", _length),
        (monitor, "mine_rare", "rare.mine_rare", _length),
        (cli, "mine_frequent", "apriori.mine_frequent", lambda args, result: (args[0].width, len(result))),
        (apriori, "join_candidates", "apriori.join_candidates",
         lambda args, result: (list(args[0]), len(result))),
        (cli, "classify_all", "lattice.classify_all", _length),
        (cli, "parse_events", "monitor.parse_events", lambda args, parsed: parsed.skipped),
        (cli, "replay", "monitor.replay", None),
        (monitor, "run_window", "monitor.run_window", None),
        (monitor, "persist_window", "monitor.persist_window", None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    saved.append((rare, "iter_levels", rare.iter_levels))
    try:
        for owner, attr, name, observe in patches:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), observe))
        rare.iter_levels = tracer.wrap_levels(rare.iter_levels)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@dataclass(frozen=True)
class LevelCounts:
    k: int
    generated: int
    pruned: int
    counted: int


def level_counts(config: rare.MiningConfig, levels: list[rare.LevelState]) -> list[LevelCounts]:
    """Generated, pruned and counted candidates of each level of one walk.

    The first level is the full item-set and the second its one-item
    reductions, neither of which is pruned; every later level is generated
    from the previous level's kept item-sets and pruned below its frequent
    record. `counted` is what the walk actually classified.
    """
    out = []
    previous = None
    for level in levels:
        counted = len(level.interesting) + len(level.frequent_record)
        if previous is None:
            generated = survivors = 1
        elif previous.k == levels[0].k:
            generated = survivors = level.k + 1
        else:
            candidates = rare.generate_candidates([m.itemset for m in previous.interesting])
            generated = len(candidates)
            if config.pruning_enabled:
                candidates = rare.prune_candidates(candidates, previous.frequent_record)
            survivors = len(candidates)
        out.append(LevelCounts(level.k, generated, generated - survivors, counted))
        previous = level
    return out


def _prefix_pairs(frequent: list) -> int:
    """Joinable pairs among frequent k-sets: those sharing their first k-1 ids."""
    groups: dict[tuple[int, ...], int] = defaultdict(int)
    for itemset in frequent:
        groups[itemset.item_ids()[:-1]] += 1
    return sum(n * (n - 1) // 2 for n in groups.values())


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], bool]:
    """Per-layer metrics of one traced pass, and whether every level balanced.

    Every `_s` value is self time (span duration minus child spans) unless
    the README's metric map says otherwise, so layers never count the same
    interval twice.
    """
    s = tracer.summary()
    obs = tracer.observed

    counts = [c for config, levels in tracer.walks for c in level_counts(config, levels)]
    balanced = all(c.generated == c.pruned + c.counted for c in counts)
    generated = sum(c.generated for c in counts)
    pruned = sum(c.pruned for c in counts)
    counted = sum(c.counted for c in counts)
    emitted = sum(obs["rare.mine_rare"])

    width_and_frequent = obs["apriori.mine_frequent"]
    apriori_frequent = sum(n for _, n in width_and_frequent)
    apriori_candidates = sum(w for w, _ in width_and_frequent) + sum(
        _prefix_pairs(inputs) for inputs, _ in obs["apriori.join_candidates"]
    )
    apriori_counted = s.calls[("itemsets.support_of_mask", "apriori.mine_frequent")]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "itemsets.support_calls": s.calls["itemsets.support_of_mask"],
        "itemsets.support_s": s.total["itemsets.support_of_mask"],
        "itemsets.render_calls": s.calls["itemsets.render"],
        "itemsets.render_s": s.total["itemsets.render"],
        "itemsets.format_s": s.self["itemsets.format_result_line"],
        "itemsets.db_build_calls": s.calls["itemsets.parse_database"]
        + s.calls["itemsets.database_from_transactions"],
        "itemsets.db_build_s": s.total["itemsets.parse_database"]
        + s.total["itemsets.database_from_transactions"],
        "rare.levels": len(counts),
        "rare.walk_self_s": s.self[LEVEL],
        "rare.generated": generated,
        "rare.pruned": pruned,
        "rare.counted": counted,
        "rare.emitted": emitted,
        "rare.prune_ratio": ratio(pruned, generated),
        "rare.useful_ratio": ratio(emitted, counted),
        "rare.sort_s": s.self["rare.mine_rare"]
        + s.self[("itemsets.canonical_key", "rare.mine_rare")],
        "apriori.join_s": s.total["apriori.join_candidates"],
        "apriori.candidates": apriori_candidates,
        "apriori.counted": apriori_counted,
        "apriori.frequent": apriori_frequent,
        "apriori.useful_ratio": ratio(apriori_frequent, apriori_counted),
        "apriori.sort_s": s.self[("itemsets.canonical_key", "apriori.mine_frequent")],
        "lattice.enumerate_self_s": s.self["lattice.classify_all"],
        "lattice.entries": sum(obs["lattice.classify_all"]),
        "monitor.windows": s.calls["monitor.run_window"],
        "monitor.cycles": s.calls[("itemsets.database_from_transactions", "monitor.run_window")],
        "monitor.cycle_width_max": max(obs["itemsets.database_from_transactions"], default=0),
        "monitor.parse_s": s.total["monitor.parse_events"],
        "monitor.mine_s": s.total[("rare.mine_rare", "monitor.run_window")],
        "monitor.persist_s": s.total["monitor.persist_window"],
        "monitor.skipped": sum(obs["monitor.parse_events"]),
        "cli.sort_s": s.self[("itemsets.canonical_key", "cli.main")],
        "cli.output_s": s.self["cli.main"],
    }
    return metrics, balanced
