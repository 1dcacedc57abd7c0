"""rareminer benchmark: seeded workloads through the CLI, with an outside-in trace.

Run from the root of a source checkout:

    python3 bench/run.py --workload mine-dense --seed 1 --seconds 20 --trace 0

With `--trace 0` it measures the end-to-end metrics; with `--trace 1` it
makes a separate traced run in-process and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; progress and the details
of any failed check go to standard error. README.md in this directory says
why each workload exists and which layer metric should move which
end-to-end metric.

The program under test is the `rareminer` package in this checkout's
`src/`, run as `python -m rareminer.cli`, which is what the installed
`rareminer` script runs. Children run one at a time, so the two cores of
a small machine never run two measured processes at once.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"

WORKLOADS = ("mine-dense", "classify-dense", "frequent-zipf", "monitor-sparse")
DENSE_SIGMA = 8
ZIPF_MIN_SUPPORT = 20
MONITOR_SIGMA = 3

# Set-up is parsing only, a few milliseconds: each round repeats it for
# SETUP_BURST_S and at least SETUP_REPEATS times.
SETUP_BURST_S = 0.15
SETUP_REPEATS = 5
STARTUP_REPEATS = 7
CHILD_TIMEOUT_S = 120

# The pace job: a fixed lattice walk in plain Python, the same kind of work
# as the program's (int AND and bit counts, string joins, a sort, line
# formatting), on data that depends on no seed and no code under test. Its
# time, taken right before and right after each timed sample, says how fast
# the CPU ran then. PACE_REF_S is its time at the fast speed level of the
# reference machine (README.md), so scaled times read as seconds there.
# When the CPU slows, a CLI run or library call slows as the pace job's
# time to the power PACE_EXPONENT, and parsing (set-up) as its time to the
# power SETUP_PACE_EXPONENT; both were fitted on the reference machine.
PACE_ITEMS = 12
PACE_ROWS = 256
PACE_REPEATS = 3
PACE_REF_S = 0.0045
PACE_EXPONENT = 0.8
SETUP_PACE_EXPONENT = 1.1

SKIPPED_RE = re.compile(r"skipped (\d+) malformed event line")


def log(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr, flush=True)


@dataclass
class Gate:
    """Counts every checked operation; a failed check is counted, never dropped."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"CHECK FAILED: {what}")
        return ok


@dataclass
class Run:
    """One finished CLI run, as a child process or in-process."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], workdir: Path) -> Run:
    """Spawn the CLI, stdout to a file, and time it from spawn to exit.

    Peak RSS comes from the rusage of this one child (`os.wait4`), not from
    RUSAGE_CHILDREN, which is a running maximum over every child so far.
    A child still running after CHILD_TIMEOUT_S is killed, then reaped.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rareminer.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=workdir,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    # Reaped here, so Popen must not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, usage.ru_maxrss / 1024,
               out_path.read_bytes(), err_path.read_bytes())


# ---------------------------------------------------------------- pace


def _pace_tidsets() -> tuple[list[str], list[int]]:
    rng = random.Random(20121209)
    labels = [f"p{i:02d}" for i in range(PACE_ITEMS)]
    tids = [sum(1 << t for t in range(PACE_ROWS) if rng.random() < 0.5) for _ in labels]
    return labels, tids


PACE_LABELS, PACE_TIDS = _pace_tidsets()


def _pace_job() -> str:
    labels, item_tids = PACE_LABELS, PACE_TIDS
    size = 1 << len(labels)
    tids, rendered, cards = [(1 << PACE_ROWS) - 1] * size, [""] * size, [0] * size
    entries = []
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        i = low.bit_length() - 1
        tids[mask] = tids[rest] & item_tids[i]
        rendered[mask] = labels[i] + " " + rendered[rest] if rest else labels[i]
        cards[mask] = cards[rest] + 1
        entries.append((cards[mask], rendered[mask], tids[mask].bit_count()))
    entries.sort()
    return "".join(f"{r} : {n}\n" for _, r, n in entries)


def pace() -> float:
    """The pace job's time now: the median of PACE_REPEATS back-to-back runs."""
    times = []
    for _ in range(PACE_REPEATS):
        start = time.perf_counter()
        _pace_job()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float, exponent: float = PACE_EXPONENT) -> float:
    """Factor that turns a time taken between two pace readings into reference seconds."""
    return (PACE_REF_S / math.sqrt(before * after)) ** exponent


# ---------------------------------------------------------------- workloads


class MiningWorkload:
    """A transaction file mined by one subcommand (`mine`, `classify`, `frequent`)."""

    expected_store = None
    expected_skipped = None

    def __init__(self, name: str, corpus, expected: str, subcommand: str, flags: list[str],
                 call, workdir: Path):
        from rareminer import parse_database

        self.name = name
        self.setup = parse_database
        self.text = corpus.text
        self.expected_stdout = expected.encode()
        self.inputs = len(corpus.rows)
        self.results = expected.count("\n")
        self._subcommand, self._flags, self._call = subcommand, flags, call
        self._path = workdir / f"{name}.txt"
        self._path.write_text(corpus.text, encoding="utf-8")

    def argv(self, workdir: Path) -> list[str]:
        return [self._subcommand, "--input", str(self._path), *self._flags]

    def lib(self, db, workdir: Path, latencies: list[float]):
        start = time.perf_counter()
        result = self._call(db)
        latencies.append(time.perf_counter() - start)
        return result

    def check_lib(self, db, result, full: bool) -> bool:
        """Full: the same lines as the reference, in any order. Otherwise a count."""
        if not full:
            return len(result) == self.results
        lines = sorted(
            f"{db.render(r.itemset)} : {r.support} "
            f"{r.classification.tag if hasattr(r, 'classification') else 'FREQUENT'}\n"
            for r in result
        )
        return "".join(lines).encode() == b"".join(sorted(self.expected_stdout.splitlines(True)))


class MonitorWorkload:
    """An event file replayed by `monitor`, every run into an empty store."""

    name = "monitor-sparse"

    def __init__(self, stream, workdir: Path):
        import generate
        import reference

        self.cycles = len(generate.MONITOR_ACTIVE)
        self.duration = generate.MONITOR_CYCLE_MS
        alerts, store, _ = reference.monitor_outputs(stream, MONITOR_SIGMA, self.cycles, self.duration)
        self.text = stream.text
        self.expected_stdout, self.expected_store = alerts.encode(), store.encode()
        self.expected_skipped = stream.malformed
        self.inputs = len(stream.events)
        self.results = alerts.count("\n") + store.count("\n")
        self._path = workdir / "events.txt"
        self._path.write_text(stream.text, encoding="utf-8")

    def argv(self, workdir: Path) -> list[str]:
        store = workdir / "store.jsonl"
        # A rerun into an existing store appends duplicate records.
        store.unlink(missing_ok=True)
        return ["monitor", "--events", str(self._path), "--max-support", str(MONITOR_SIGMA),
                "--cycles", str(self.cycles), "--cycle-duration", str(self.duration),
                "--store", str(store)]

    def setup(self, text: str):
        from rareminer import parse_events

        # Each malformed line logs a warning; keep them off the terminal.
        with contextlib.redirect_stderr(io.StringIO()):
            return parse_events(text)

    def lib(self, parsed, workdir: Path, latencies: list[float]):
        """`replay` on parsed events, timing each `run_window` call it makes."""
        import rareminer.monitor as monitor
        from rareminer import EventWindowConfig

        store = workdir / "lib-store.jsonl"
        store.unlink(missing_ok=True)
        config = EventWindowConfig(MONITOR_SIGMA, self.cycles, self.duration, store)
        fired = []
        run_window = monitor.run_window

        def timed_window(*args, **kwargs):
            start = time.perf_counter()
            try:
                return run_window(*args, **kwargs)
            finally:
                latencies.append(time.perf_counter() - start)

        monitor.run_window = timed_window
        try:
            monitor.replay(parsed.events, config, alert_sink=fired.append)
        finally:
            monitor.run_window = run_window
        return parsed.skipped, fired, store.read_bytes()

    def check_lib(self, parsed, result, full: bool) -> bool:
        from rareminer import format_alert_line

        skipped, fired, store = result
        alerts = "".join(format_alert_line(a) + "\n" for a in fired).encode()
        return (skipped, alerts, store) == (
            self.expected_skipped, self.expected_stdout, self.expected_store)


def build_workload(name: str, seed: int, dense, workdir: Path):
    import generate
    import reference
    from rareminer import EMIT_BOTH, MiningConfig, classify_all, mine_frequent, mine_rare

    if name == "monitor-sparse":
        return MonitorWorkload(generate.monitor_stream(seed), workdir)
    sigma = str(DENSE_SIGMA)
    if name == "frequent-zipf":
        corpus = generate.zipf_corpus(seed)
        return MiningWorkload(
            name, corpus, reference.frequent_output(corpus.rows, ZIPF_MIN_SUPPORT),
            "frequent", ["--min-support", str(ZIPF_MIN_SUPPORT)],
            lambda db: mine_frequent(db, ZIPF_MIN_SUPPORT), workdir)
    expected = reference.dense_outputs(dense.rows, DENSE_SIGMA)
    if name == "mine-dense":
        return MiningWorkload(
            name, dense, expected["mine"], "mine", ["--max-support", sigma, "--emit", "both"],
            lambda db: mine_rare(db, MiningConfig(DENSE_SIGMA, emit=EMIT_BOTH)), workdir)
    return MiningWorkload(
        name, dense, expected["classify"], "classify", ["--max-support", sigma],
        lambda db: classify_all(db, DENSE_SIGMA), workdir)


def check_run(gate: Gate, w, run: Run, workdir: Path, what: str) -> bool:
    """Exit code, stdout bytes and, for the monitor, store bytes and skipped count."""
    problems = []
    if run.returncode != 0:
        problems.append(f"exit code {run.returncode}: {run.stderr[-400:]!r}")
    if run.stdout != w.expected_stdout:
        problems.append("stdout differs from the reference")
    if w.expected_store is not None:
        store = workdir / "store.jsonl"
        if not store.exists() or store.read_bytes() != w.expected_store:
            problems.append("store differs from the reference")
        found = SKIPPED_RE.search(run.stderr.decode(errors="replace"))
        if found is None or int(found.group(1)) != w.expected_skipped:
            problems.append(f"skipped-line count is not {w.expected_skipped}")
    return gate.check(not problems, f"{what}: " + "; ".join(problems))


def partition_check(gate: Gate, dense, workdir: Path) -> None:
    """mine (rare + non-present) plus frequent at the same threshold is classify.

    Each of the three outputs is also compared with the reference bytes.
    """
    import reference

    path = workdir / "partition.txt"
    path.write_text(dense.text, encoding="utf-8")
    expected = reference.dense_outputs(dense.rows, DENSE_SIGMA)
    sigma = str(DENSE_SIGMA)
    runs = {
        "mine": ["mine", "--input", str(path), "--max-support", sigma, "--emit", "both"],
        "frequent": ["frequent", "--input", str(path), "--min-support", sigma],
        "classify": ["classify", "--input", str(path), "--max-support", sigma],
    }
    lines, problems = {}, []
    for kind, argv in runs.items():
        run = run_child(argv, workdir)
        if run.returncode != 0 or run.stdout != expected[kind].encode():
            problems.append(f"{kind} output (exit {run.returncode}) differs from the reference")
        lines[kind] = run.stdout.splitlines()
    if sorted(lines["mine"] + lines["frequent"]) != sorted(lines["classify"]):
        problems.append("mine + frequent lines differ from classify lines")
    gate.check(not problems, "partition check: " + "; ".join(problems))


class Rounds:
    """Rounds of a measurement loop that fit in `seconds`, at least one.

    A round starts only if a round of average length would still end by the
    deadline, so a run measures for about `seconds` and never much longer.
    Each round pins this process, and so the children it starts, to the next
    CPU it may use: on a shared VM each CPU slows down and speeds up on its
    own, and rotating gives every run more chances to meet a fast one.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.done = 0

    def __iter__(self):
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)
        try:
            while True:
                elapsed = time.perf_counter() - self.start
                if self.done and elapsed + elapsed / self.done > self.seconds:
                    return
                os.sched_setaffinity(0, {cpus[self.done % len(cpus)]})
                yield self.done
                self.done += 1
        finally:
            os.sched_setaffinity(0, allowed)


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------- end to end


def measure_end_to_end(w, seconds: float, gate: Gate, workdir: Path) -> dict[str, float]:
    """Medians of speed-scaled samples: see README.md for why they are scaled.

    Every timed sample lies between two pace readings, and its time is
    multiplied by `scale` of those two readings. Consecutive samples share
    the reading between them.
    """
    parsed = w.setup(w.text)
    walls, rss, libs, windows, setups, paces = [], [], [], [], [], []
    raw = {"wall_s": [], "lib_s": [], "setup_s": []}
    for n in Rounds(seconds):
        argv = w.argv(workdir)
        gc.collect()
        before = pace()
        run = run_child(argv, workdir)
        after = pace()
        factor = scale(before, after)
        walls.append(run.wall_s * factor)
        raw["wall_s"].append(run.wall_s)
        rss.append(run.peak_rss_mb)
        check_run(gate, w, run, workdir, f"CLI run {n + 1}")
        del run

        gc.collect()
        latencies = []
        before = pace()
        start = time.perf_counter()
        try:
            result = w.lib(parsed, workdir, latencies)
        except Exception:  # a failed call is counted, and the run goes on
            log(traceback.format_exc())
            result = None
        elapsed = time.perf_counter() - start
        after = pace()
        factor = scale(before, after)
        libs.append(elapsed * factor)
        raw["lib_s"].append(elapsed)
        windows.append([t * factor for t in latencies])
        # The line-by-line comparison runs on the first call only, but
        # every call is checked and counted.
        ok = result is not None and w.check_lib(parsed, result, full=n == 0)
        gate.check(ok, f"library call {n + 1}")
        del result

        # Set-up takes milliseconds, so every round repeats it: its samples
        # then span the same stretch of time as the other metrics.
        gc.collect()
        burst_raw = []
        before = pace()
        burst = time.perf_counter()
        while len(burst_raw) < SETUP_REPEATS or time.perf_counter() - burst < SETUP_BURST_S:
            start = time.perf_counter()
            w.setup(w.text)
            burst_raw.append(time.perf_counter() - start)
        after = pace()
        factor = scale(before, after, SETUP_PACE_EXPONENT)
        setups += [t * factor for t in burst_raw]
        raw["setup_s"] += burst_raw
        paces.append(after)
    # Window i of the stream is replayed once per round; keep its median.
    per_window = [statistics.median(times) for times in zip(*windows)]
    log(f"{len(walls)} CLI runs, {len(libs)} library calls, {len(per_window)} windows "
        f"x {len(windows)} replays, {len(setups)} set-ups; pace job median "
        f"{statistics.median(paces) * 1e3:.2f} ms against {PACE_REF_S * 1e3:.2f} ms reference")
    for name, values in raw.items():
        log(f"unscaled {name}: min {min(values):.6g} s, median {statistics.median(values):.6g} s")

    wall_s = statistics.median(walls)
    return {
        "wall_s": wall_s,
        "lib_s": statistics.median(libs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "results_per_s": w.results / wall_s,
        "events_per_s": w.inputs / wall_s,
        "window_latency_p50_s": percentile(per_window, 50),
        "window_latency_p90_s": percentile(per_window, 90),
    }


# ---------------------------------------------------------------- traced run


def run_in_process(w, workdir: Path, tracer=None) -> Run:
    """`rareminer.cli.main` in this process, optionally with every span traced."""
    import rareminer.cli as cli
    import spans

    argv = w.argv(workdir)
    out_path = workdir / "inprocess.out"
    out_path.unlink(missing_ok=True)
    if w.expected_store is None:
        argv += ["--output", str(out_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    installed = spans.instrumented(tracer) if tracer is not None else contextlib.nullcontext()
    gc.collect()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), installed:
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # reported as a failed run by check_run
            print(traceback.format_exc(), file=sys.stderr)
            code = -1
        elapsed = time.perf_counter() - start
    if w.expected_store is not None:
        produced = stdout.getvalue().encode()
    else:
        produced = out_path.read_bytes() if out_path.exists() else b""
    return Run(code, elapsed, 0.0, produced, stderr.getvalue().encode())


def measure_layers(w, seconds: float, gate: Gate, workdir: Path) -> dict[str, float]:
    import spans

    def startup_once() -> float:
        run = run_child(["--help"], workdir)
        gate.check(run.returncode == 0 and run.stdout.startswith(b"usage"), "CLI --help")
        return run.wall_s

    startup_s = min(startup_once() for _ in range(STARTUP_REPEATS))

    plain, traced, layers = [], [], []
    for n in Rounds(seconds):
        run = run_in_process(w, workdir)
        check_run(gate, w, run, workdir, f"in-process run {n + 1}")
        plain.append(run.wall_s)

        tracer = spans.Tracer()
        run = run_in_process(w, workdir, tracer)
        check_run(gate, w, run, workdir, f"traced in-process run {n + 1}")
        traced.append(run.wall_s)
        metrics, balanced = spans.layer_metrics(tracer)
        gate.check(balanced, "trace: generated != pruned + counted at some level")
        store = workdir / "store.jsonl"
        metrics["monitor.store_bytes"] = store.stat().st_size if store.exists() else 0
        metrics["monitor.alerts"] = run.stdout.count(b"\n") if w.expected_store is not None else 0
        layers.append(metrics)
        del tracer, run
    log(f"{len(plain)} plain and {len(traced)} traced in-process runs")

    # The fastest traced pass, whole, so that its layers still add up.
    out = dict(layers[traced.index(min(traced))])
    out["cli.startup_s"] = startup_s
    out["trace_overhead_ratio"] = min(traced) / min(plain) - 1
    return out


# ---------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rareminer" / "__init__.py").is_file():
        log(f"no rareminer package under {SRC}; run from a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import generate
    import rareminer

    if Path(rareminer.__file__).resolve().parent != (SRC / "rareminer").resolve():
        log(f"imported rareminer from {rareminer.__file__}, not from {SRC}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    gate = Gate()
    try:
        dense = generate.dense_corpus(args.seed)
        w = build_workload(args.workload, args.seed, dense, workdir)
        log(f"{w.name} seed {args.seed}: {w.inputs} input records, {w.results} expected results")
        partition_check(gate, dense, workdir)
        measure = measure_layers if args.trace else measure_end_to_end
        values = measure(w, args.seconds, gate, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        log(f"metrics not measured: {missing}")
        return 2
    for name in units:
        log(f"{name:28s} {values[name]:.6g} {units[name]}")
    log(f"fail_ratio {gate.failed}/{gate.attempted}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
