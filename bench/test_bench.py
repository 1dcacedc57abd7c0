"""Self-tests of the benchmark's generators, reference outputs and trace.

Run from the root of a source checkout:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import generate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import rareminer.cli as cli  # noqa: E402
from rareminer import (  # noqa: E402
    EMIT_BOTH,
    EventWindowConfig,
    MiningConfig,
    database_from_transactions,
    format_alert_line,
    mine_rare,
    parse_events,
    replay,
)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for make in (generate.dense_corpus, generate.zipf_corpus, generate.monitor_stream):
            with self.subTest(generator=make.__name__):
                self.assertEqual(make(7).text.encode(), make(7).text.encode())
                self.assertNotEqual(make(7).text, make(8).text)

    def test_dense_shape(self):
        corpus = generate.dense_corpus(3)
        self.assertEqual(len(corpus.rows), generate.DENSE_TRANSACTIONS)
        self.assertEqual(len({label for row in corpus.rows for label in row}), generate.DENSE_ITEMS)
        self.assertTrue(all(row for row in corpus.rows))
        supports = {sum(label in row for row in corpus.rows) for label in corpus.rows[0]}
        self.assertEqual(supports, {generate.DENSE_TRANSACTIONS * generate.DENSE_P})

    def test_monitor_cycles_start_on_boundaries_and_stay_within_active_sets(self):
        stream = generate.monitor_stream(5)
        starts = {ts for ts, _ in stream.events}
        n_cycles = generate.MONITOR_WINDOWS * generate.MONITOR_CYCLES
        for cycle in range(n_cycles):
            self.assertIn(generate.MONITOR_BASE_MS + cycle * generate.MONITOR_CYCLE_MS, starts)
        actives = generate.MONITOR_ACTIVE * generate.MONITOR_WINDOWS
        self.assertEqual(len(stream.cycle_widths), n_cycles)
        self.assertTrue(all(w <= a for w, a in zip(stream.cycle_widths, actives)))
        with contextlib.redirect_stderr(io.StringIO()):
            parsed = parse_events(stream.text)
        self.assertEqual(parsed.skipped, stream.malformed)
        self.assertGreater(stream.malformed, 0)
        self.assertEqual(len(parsed.events), len(stream.events))


class ReferenceTest(unittest.TestCase):
    """The benchmark's own expected outputs agree with the package on small inputs."""

    def test_dense_outputs_match_the_cli(self):
        rows = [[label for label in row if label < "d10"] for row in generate.dense_corpus(2).rows[:60]]
        rows = [row for row in rows if row]
        text = "".join(" ".join(row) + "\n" for row in rows)
        expected = reference.dense_outputs(rows, 4)
        expected_frequent = reference.frequent_output(rows, 4)
        self.assertEqual(expected["frequent"], expected_frequent)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "db.txt"
            path.write_text(text, encoding="utf-8")
            for kind, flags in (
                ("mine", ["--max-support", "4"]),
                ("frequent", ["--min-support", "4"]),
                ("classify", ["--max-support", "4"]),
            ):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    self.assertEqual(cli.main([kind, "--input", str(path), *flags]), 0)
                self.assertEqual(out.getvalue(), expected[kind], kind)

    def test_monitor_outputs_match_replay(self):
        events = [
            (0, ("a", "b")), (10, ("a", "b", "c")), (500, ("c", "d")),
            (1000, ("a", "b", "c")), (1500, ("b", "d")),
            (2000, ("a", "b", "c")), (2400, ("a", "d")), (2600, ("c", "d")),
            (3000, ("x", "y")),
        ]
        text = "".join(f"{ts} {' '.join(items)}\n" for ts, items in events)
        stream = generate.EventStream(text, tuple(events), 0, ())
        alerts, store, windows = reference.monitor_outputs(stream, 2, 3, 1000)
        with tempfile.TemporaryDirectory() as tmp:
            store_path = Path(tmp) / "store.jsonl"
            fired = []
            reports = replay(parse_events(text).events, EventWindowConfig(2, 3, 1000, store_path),
                             alert_sink=fired.append)
            self.assertEqual(windows, len(reports))
            self.assertEqual(alerts, "".join(format_alert_line(a) + "\n" for a in fired))
            self.assertEqual(store, store_path.read_text(encoding="utf-8"))
        self.assertIn("ALERT window=0 pattern=a b c cycles=3\n", alerts)


class TraceTest(unittest.TestCase):
    def traced_walk(self, rows, config):
        db = database_from_transactions(rows)
        tracer = spans.Tracer()
        with spans.instrumented(tracer):
            # The CLI's reference to mine_rare is one of the traced ones.
            cli.mine_rare(db, config)
        return tracer

    def test_every_level_balances(self):
        rows = [[label for label in row if label < "d11"] for row in generate.dense_corpus(4).rows[:80]]
        rows = [row for row in rows if row]
        for pruning in (True, False):
            with self.subTest(pruning=pruning):
                config = MiningConfig(5, pruning_enabled=pruning, emit=EMIT_BOTH)
                tracer = self.traced_walk(rows, config)
                [(walk_config, levels)] = tracer.walks
                counts = spans.level_counts(walk_config, levels)
                self.assertGreater(len(counts), 2)
                for c in counts:
                    self.assertEqual(c.generated, c.pruned + c.counted, f"level {c.k}")
                if not pruning:
                    self.assertEqual(sum(c.pruned for c in counts), 0)
                metrics, balanced = spans.layer_metrics(tracer)
                self.assertTrue(balanced)
                # Every counted candidate is one support count inside a level span.
                summary = tracer.summary()
                self.assertEqual(
                    metrics["rare.counted"],
                    summary.calls[("itemsets.support_of_mask", spans.LEVEL)],
                )
                self.assertEqual(metrics["rare.emitted"], len(mine_rare(database_from_transactions(rows), config)))

    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(20000)))
        outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
        outer()
        summary = tracer.summary()
        self.assertEqual(summary.calls["inner"], 3)
        self.assertEqual(summary.calls[("inner", "outer")], 3)
        self.assertAlmostEqual(
            summary.self["outer"] + summary.total["inner"], summary.total["outer"], places=9
        )

    def test_wrappers_are_removed(self):
        import rareminer.rare as rare
        from rareminer import TransactionDatabase

        before = (rare.iter_levels, cli.mine_rare, TransactionDatabase.render)
        with spans.instrumented(spans.Tracer()):
            self.assertNotEqual(before, (rare.iter_levels, cli.mine_rare, TransactionDatabase.render))
        self.assertEqual(before, (rare.iter_levels, cli.mine_rare, TransactionDatabase.render))


class PaceTest(unittest.TestCase):
    def test_pace_job_is_fixed_work(self):
        text = run._pace_job()
        self.assertEqual(text, run._pace_job())
        self.assertEqual(text.count("\n"), (1 << run.PACE_ITEMS) - 1)

    def test_scale_is_one_at_the_reference_pace(self):
        self.assertAlmostEqual(run.scale(run.PACE_REF_S, run.PACE_REF_S), 1.0)
        self.assertAlmostEqual(run.scale(2 * run.PACE_REF_S, 2 * run.PACE_REF_S),
                               0.5 ** run.PACE_EXPONENT)
        self.assertAlmostEqual(
            run.scale(2 * run.PACE_REF_S, 2 * run.PACE_REF_S, run.SETUP_PACE_EXPONENT),
            0.5 ** run.SETUP_PACE_EXPONENT)


if __name__ == "__main__":
    unittest.main()
