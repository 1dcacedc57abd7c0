"""Command-line behaviour: output bytes, exit codes, cross-command contracts."""

from __future__ import annotations

import contextlib
import errno
import importlib
import inspect
import io
import json
import os
import random
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rareminer
import rareminer.cli as cli
from conftest import WORKED_DB_TEXT
from rareminer import (
    ItemSet,
    MinedItemSet,
    MiningConfig,
    ReplayOrderError,
    TransactionDatabase,
    classify_all,
    format_result_line,
    mine_frequent,
    mine_rare,
    parse_database,
)
from rareminer.cli import main
from rareminer.itemsets import canonical_key

MINE_SIGMA3_EXPECTED = """\
e : 2 RARE
a d : 1 RARE
a e : 1 RARE
b d : 2 RARE
b e : 1 RARE
c d : 2 RARE
c e : 2 RARE
d e : 1 RARE
a b d : 1 RARE
a b e : 1 RARE
a c d : 1 RARE
a c e : 1 RARE
a d e : 0 NONPRESENT
b c d : 1 RARE
b c e : 1 RARE
b d e : 0 NONPRESENT
c d e : 1 RARE
a b c d : 1 RARE
a b c e : 1 RARE
a b d e : 0 NONPRESENT
a c d e : 0 NONPRESENT
b c d e : 0 NONPRESENT
a b c d e : 0 NONPRESENT
"""

FREQUENT_MINSUPP3_EXPECTED = """\
a : 3 FREQUENT
b : 4 FREQUENT
c : 4 FREQUENT
d : 3 FREQUENT
a b : 3 FREQUENT
a c : 3 FREQUENT
b c : 3 FREQUENT
a b c : 3 FREQUENT
"""


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "db.txt"
    path.write_text(WORKED_DB_TEXT)
    return str(path)


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestMine:
    def test_worked_database_bytes(self, run, db_file):
        code, out, _ = run("mine", "--input", db_file, "--max-support", "3")
        assert code == 0
        assert out == MINE_SIGMA3_EXPECTED

    def test_sigma_1_only_nonpresent(self, run, db_file):
        code, out, _ = run("mine", "--input", db_file, "--max-support", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert all(line.endswith("NONPRESENT") for line in lines)

    def test_emit_filters(self, run, db_file):
        code, out, _ = run(
            "mine", "--input", db_file, "--max-support", "3", "--emit", "rare"
        )
        assert code == 0
        assert len(out.splitlines()) == 17
        code, out, _ = run(
            "mine", "--input", db_file, "--max-support", "3", "--emit", "nonpresent"
        )
        assert len(out.splitlines()) == 6

    def test_sigma_zero_is_usage_error(self, run, db_file):
        code, out, err = run("mine", "--input", db_file, "--max-support", "0")
        assert code == 2
        assert out == ""
        assert "max-support" in err

    def test_sigma_above_db_plus_one_is_usage_error(self, run, db_file):
        code, _, err = run("mine", "--input", db_file, "--max-support", "7")
        assert code == 2
        assert "[1, 6]" in err

    def test_missing_input_is_io_error(self, run, tmp_path):
        code, _, err = run(
            "mine", "--input", str(tmp_path / "nope.txt"), "--max-support", "3"
        )
        assert code == 1
        assert err

    def test_item_cap_is_usage_error_naming_both_numbers(self, run, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text(" ".join(f"x{i}" for i in range(25)) + "\n")
        code, _, err = run("mine", "--input", str(path), "--max-support", "1")
        assert code == 2
        assert "25" in err and "24" in err
        code, out, _ = run(
            "mine", "--input", str(path), "--max-support", "1", "--max-items", "25"
        )
        assert code == 0

    def test_no_prune_is_a_usage_error(self, run, db_file, capsys):
        # The walk generates nothing a prune step could drop, so there is
        # no pruning left to switch off.
        with pytest.raises(SystemExit) as exc:
            run("mine", "--input", db_file, "--max-support", "3", "--no-prune")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--no-prune" in captured.err

    def test_output_file_matches_stdout(self, run, db_file, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run(
            "mine", "--input", db_file, "--max-support", "3",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == MINE_SIGMA3_EXPECTED

    def test_new_output_file_gets_the_umask_mode(self, run, db_file, tmp_path):
        target = tmp_path / "out.txt"
        previous = os.umask(0o022)
        try:
            code, _, _ = run(
                "mine", "--input", db_file, "--max-support", "3",
                "--output", str(target),
            )
        finally:
            os.umask(previous)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    def test_replaced_output_file_keeps_its_mode(self, run, db_file, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("stale\n")
        target.chmod(0o640)
        previous = os.umask(0o022)
        try:
            code, _, _ = run(
                "mine", "--input", db_file, "--max-support", "3",
                "--output", str(target),
            )
        finally:
            os.umask(previous)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert target.read_text() == MINE_SIGMA3_EXPECTED

    def test_missing_output_directory_names_the_output_path(self, run, db_file, tmp_path):
        target = str(tmp_path / "nope" / "out.txt")
        code, out, err = run("mine", "--input", db_file, "--max-support", "3", "--output", target)
        assert code == 1
        assert out == ""
        assert err == f"rareminer: error: [Errno 2] No such file or directory: {target!r}\n"

    def test_output_directory_names_the_output_path(self, run, db_file, tmp_path):
        target = tmp_path / "adir"
        target.mkdir()
        code, out, err = run("mine", "--input", db_file, "--max-support", "3", "--output", str(target))
        assert code == 1
        assert out == ""
        assert err == f"rareminer: error: [Errno 21] Is a directory: {str(target)!r}\n"
        assert target.is_dir()
        assert list(target.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "db.txt"]

    def test_output_below_a_file_names_the_output_path(self, run, db_file, tmp_path, monkeypatch):
        # Relative, as typed: the error names neither the absolute nor the
        # resolved form.
        monkeypatch.chdir(tmp_path)
        Path("t.txt").write_text("kept\n")
        code, out, err = run("mine", "--input", db_file, "--max-support", "3", "--output", "t.txt/x")
        assert code == 1
        assert out == ""
        assert err == "rareminer: error: [Errno 20] Not a directory: 't.txt/x'\n"
        assert Path("t.txt").read_text() == "kept\n"

    def test_output_to_a_fifo_writes_into_it(self, run, db_file, tmp_path):
        # A FIFO is written like a shell redirect writes it, never replaced
        # by a regular file.
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            code, out, err = run("mine", "--input", db_file, "--max-support", "3", "--output", str(fifo))
        finally:
            reader.join(10)
            if reader.is_alive():
                # Nothing opened the FIFO for writing: release the reader
                # waiting for a writer. Non-blocking, so that this fails
                # rather than waits when no reader is left.
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                reader.join(10)
        assert not reader.is_alive()
        assert (code, out, err) == (0, "", "")
        assert received == [MINE_SIGMA3_EXPECTED.encode()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db.txt", "pipe"]

    def test_runs_twice_identically(self, run, db_file):
        first = run("mine", "--input", db_file, "--max-support", "3")
        second = run("mine", "--input", db_file, "--max-support", "3")
        assert first == second


class TestFrequent:
    def test_worked_database_bytes(self, run, db_file):
        code, out, _ = run("frequent", "--input", db_file, "--min-support", "3")
        assert code == 0
        assert out == FREQUENT_MINSUPP3_EXPECTED

    def test_min_support_6_empty_success(self, run, db_file):
        code, out, _ = run("frequent", "--input", db_file, "--min-support", "6")
        assert code == 0
        assert out == ""

    def test_min_support_1_is_25_lines(self, run, db_file):
        code, out, _ = run("frequent", "--input", db_file, "--min-support", "1")
        assert code == 0
        assert len(out.splitlines()) == 25


class TestClassify:
    def test_full_lattice_dump(self, run, db_file):
        code, out, _ = run("classify", "--input", db_file, "--max-support", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 31
        # lines come sorted by (cardinality, labels), like the miners' output
        keys = [
            (len(line.split(" : ")[0].split()), line.split(" : ")[0])
            for line in lines
        ]
        assert keys == sorted(keys)

    def test_single_item_database(self, run, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("a\n")
        code, out, _ = run("classify", "--input", str(path), "--max-support", "1")
        assert code == 0
        assert out == "a : 1 FREQUENT\n"

    def test_oracle_cap_exceeded(self, run, tmp_path):
        path = tmp_path / "seventeen.txt"
        path.write_text(" ".join(f"x{i}" for i in range(17)) + "\n")
        code, _, err = run("classify", "--input", str(path), "--max-support", "1")
        assert code == 2
        assert "17" in err and "16" in err

    def test_union_of_miners_is_the_classification(self, run, db_file):
        for sigma in ("1", "2", "3", "4", "5", "6"):
            _, mined, _ = run("mine", "--input", db_file, "--max-support", sigma)
            _, frequent, _ = run("frequent", "--input", db_file, "--min-support", sigma)
            _, classified, _ = run("classify", "--input", db_file, "--max-support", sigma)
            union = sorted(mined.splitlines() + frequent.splitlines())
            assert union == sorted(classified.splitlines())


@pytest.mark.parametrize("command, threshold", [
    ("mine", "--max-support"), ("frequent", "--min-support"), ("classify", "--max-support"),
])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_nonpositive_item_cap_is_usage_error(run, db_file, command, threshold, cap):
    code, out, err = run(command, "--input", db_file, threshold, "3", "--max-items", cap)
    assert code == 2
    assert out == ""
    assert f"--max-items must be at least 1, got {cap}" in err


class TestMonitor:
    EVENTS = """\
0 p q
100 x
200 x
300 x
1000 p q
1100 x
1200 x
1300 x
2000 p q
2100 x
2200 x
2300 x
"""

    def write_events(self, tmp_path, text=None):
        path = tmp_path / "events.txt"
        path.write_text(text if text is not None else self.EVENTS)
        return str(path)

    def monitor_args(self, events, store):
        return [
            "monitor", "--events", events, "--max-support", "2",
            "--cycles", "3", "--cycle-duration", "1000", "--store", store,
        ]

    def test_alerts_on_recurring_rare_pattern(self, run, tmp_path):
        events = self.write_events(tmp_path)
        store = str(tmp_path / "store.jsonl")
        code, out, _ = run(*self.monitor_args(events, store))
        assert code == 0
        assert "ALERT window=0 pattern=p q cycles=3" in out.splitlines()

    def test_no_recurrence_no_alerts_but_store_grows(self, run, tmp_path):
        text = "0 p q\n100 x\n100 x\n1000 x\n1000 x\n2000 x\n2000 x\n"
        events = self.write_events(tmp_path, text)
        store = tmp_path / "store.jsonl"
        code, out, _ = run(*self.monitor_args(events, str(store)))
        assert code == 0
        assert "ALERT" not in out
        assert store.read_text() != ""

    def test_missing_store_directory_is_io_error(self, run, tmp_path):
        events = self.write_events(tmp_path)
        store = str(tmp_path / "no" / "such" / "dir" / "store.jsonl")
        code, _, err = run(*self.monitor_args(events, store))
        assert code == 1
        assert err

    def test_unwritable_store_prints_no_alert(self, run, tmp_path):
        # The window would alert on p q, but its records cannot be stored.
        events = self.write_events(tmp_path, "0 p q\n1000 p q\n2000 p q\n")
        store = str(tmp_path / "missing" / "s.jsonl")
        code, out, err = run(*self.monitor_args(events, store))
        assert code == 1
        assert out == ""
        assert err.startswith("rareminer: error: ")

    def test_a_store_that_cannot_seek_is_named(self, run, tmp_path):
        # A FIFO opens for append but cannot report its end, so the window
        # fails before anything is written, naming the store as given.
        events = self.write_events(tmp_path, "0 p q\n1000 p q\n2000 p q\n")
        fifo = tmp_path / "store"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            code, out, err = run(*self.monitor_args(events, str(fifo)))
        finally:
            reader.join(10)
            if reader.is_alive():
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                reader.join(10)
        assert not reader.is_alive()
        assert (code, out) == (1, "")
        assert err == f"rareminer: error: [Errno {errno.ESPIPE}] {os.strerror(errno.ESPIPE)}: {str(fifo)!r}\n"
        assert received == [b""]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_non_monotone_events_are_usage_error(self, run, tmp_path):
        events = self.write_events(tmp_path, "900 x\n100 y\n")
        store = tmp_path / "store.jsonl"
        code, out, err = run(*self.monitor_args(events, str(store)))
        assert code == 2
        assert "non-monotone" in err
        assert (out, err) == ("", "rareminer: error: non-monotone timestamps in replay: line 2 has 100 after 900\n")
        assert not store.exists()

    @pytest.mark.parametrize("name", ["parse_events", "replay"])
    def test_only_an_order_error_is_a_usage_error(self, run, tmp_path, monkeypatch, name):
        # Both the parse and the replay refuse a timestamp that goes back, and
        # exit 2 says so; any other ValueError is a fault, and propagates.
        events = self.write_events(tmp_path)
        store = tmp_path / "store.jsonl"

        def raising(exc):
            def fail(*args, **kwargs):
                raise exc
            return fail

        monkeypatch.setattr(cli, name, raising(ReplayOrderError("event at 5 ms precedes its window's start at 9 ms")))
        assert run(*self.monitor_args(events, str(store))) == (
            2, "", "rareminer: error: event at 5 ms precedes its window's start at 9 ms\n")
        monkeypatch.setattr(cli, name, raising(ValueError("not an order error")))
        with pytest.raises(ValueError, match="^not an order error$"):
            main(self.monitor_args(events, str(store)))
        assert not store.exists()

    def test_malformed_lines_warn_on_stderr(self, run, tmp_path):
        events = self.write_events(tmp_path, "junk\n0 a\n500 a\n500 a\n")
        store = str(tmp_path / "store.jsonl")
        code, out, err = run(
            "monitor", "--events", events, "--max-support", "2",
            "--cycles", "1", "--cycle-duration", "1000", "--store", store,
        )
        assert code == 0
        assert "skipped 1 malformed" in err

    def test_each_malformed_line_warns_once_then_the_total(self, run, tmp_path):
        events = self.write_events(tmp_path, "junk\n0 a\n+5 b\n500 a\n")
        store = str(tmp_path / "store.jsonl")
        code, _, err = run(
            "monitor", "--events", events, "--max-support", "2",
            "--cycles", "1", "--cycle-duration", "1000", "--store", store,
        )
        assert code == 0
        assert err.splitlines() == [
            "rareminer: warning: skipping malformed event line 1: 'junk'",
            "rareminer: warning: skipping malformed event line 3: '+5 b'",
            "rareminer: warning: skipped 2 malformed event line(s)",
        ]

    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                        reason="this interpreter converts 5,000 digits to an int")
    def test_timestamp_over_the_int_string_limit_is_a_malformed_line(self, tmp_path):
        events = self.write_events(tmp_path, "1" * 5000 + " a\n" + self.EVENTS)
        env = {**os.environ, "PYTHONPATH": str(Path(rareminer.__file__).parents[1])}
        argv = self.monitor_args(events, str(tmp_path / "store.jsonl"))
        proc = subprocess.run([sys.executable, "-m", "rareminer.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "rareminer: warning: skipped 1 malformed event line(s)"
        assert "ALERT window=0 pattern=p q cycles=3" in proc.stdout.splitlines()

    def test_deterministic_stdout(self, run, tmp_path):
        events = self.write_events(tmp_path)
        first = run(*self.monitor_args(events, str(tmp_path / "s1.jsonl")))
        second = run(*self.monitor_args(events, str(tmp_path / "s2.jsonl")))
        assert first[1] == second[1]

    def test_nonpositive_parameters_are_usage_errors(self, run, tmp_path):
        events = self.write_events(tmp_path)
        store = str(tmp_path / "store.jsonl")
        code, _, err = run(
            "monitor", "--events", events, "--max-support", "0",
            "--cycles", "3", "--cycle-duration", "1000", "--store", store,
        )
        assert code == 2
        assert "--max-support" in err

    def test_byte_order_mark_does_not_hide_the_first_event(self, run, tmp_path):
        # Without the mark dropped, line 1 would read '\ufeff0 p q', a
        # malformed event, and the p q pattern could not recur in all cycles.
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + self.EVENTS.encode())
        runs = []
        for name, events in (("plain", self.write_events(tmp_path)), ("marked", str(marked))):
            store = tmp_path / f"{name}.jsonl"
            runs.append((run(*self.monitor_args(events, str(store))), store.read_bytes()))
        assert runs[0] == runs[1]
        (code, out, err), _ = runs[1]
        assert code == 0 and err == ""
        assert "ALERT window=0 pattern=p q cycles=3" in out.splitlines()


class TestMonitorOverCapCycles:
    def test_over_cap_cycle_is_skipped_with_a_count_on_stderr(self, run, tmp_path):
        wide = " ".join(f"w{i}" for i in range(25))
        events = tmp_path / "events.txt"
        events.write_text(f"0 a\n1000 {wide}\n2000 a\n")
        store = tmp_path / "store.jsonl"
        code, out, err = run(
            "monitor", "--events", str(events), "--max-support", "2",
            "--cycles", "1", "--cycle-duration", "1000", "--store", str(store),
        )
        assert code == 0
        assert out.splitlines() == [
            "ALERT window=0 pattern=a cycles=1",
            "ALERT window=2000 pattern=a cycles=1",
        ]
        assert err.splitlines() == [
            "rareminer: warning: skipping cycle 0 of the window at 1000 ms: "
            "item universe has 25 distinct items, exceeding the cap of 24",
            "rareminer: warning: skipped 1 cycle(s) with more than 24 distinct items",
        ]
        starts = [json.loads(line)["window_start"] for line in store.read_text().splitlines()]
        assert starts == [0, 2000]

    # A malformed line, then a cycle over the cap in the window at 1000 ms.
    MIXED = "junk\n0 a\n1000 " + " ".join(f"w{i}" for i in range(25)) + "\n2000 a\n"
    MIXED_STDERR = [
        "rareminer: warning: skipping malformed event line 1: 'junk'",
        "rareminer: warning: skipped 1 malformed event line(s)",
        "rareminer: warning: skipping cycle 0 of the window at 1000 ms: "
        "item universe has 25 distinct items, exceeding the cap of 24",
        "rareminer: warning: skipped 1 cycle(s) with more than 24 distinct items",
    ]

    def mixed_args(self, tmp_path):
        events = tmp_path / "events.txt"
        events.write_text(self.MIXED)
        return [
            "monitor", "--events", str(events), "--max-support", "2",
            "--cycles", "1", "--cycle-duration", "1000", "--store", str(tmp_path / "s.jsonl"),
        ]

    def test_line_warnings_and_total_then_cycle_warnings_and_total(self, run, tmp_path):
        code, out, err = run(*self.mixed_args(tmp_path))
        assert code == 0
        assert out.splitlines() == [
            "ALERT window=0 pattern=a cycles=1",
            "ALERT window=2000 pattern=a cycles=1",
        ]
        assert err.splitlines() == self.MIXED_STDERR

    def test_warnings_do_not_load_logging(self, tmp_path):
        # Run in a fresh interpreter: pytest itself imports logging, and its
        # log handlers would keep a logged warning off stderr.
        src = str(Path(rareminer.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); from rareminer.cli import main; "
            f"code = main({self.mixed_args(tmp_path)!r}); "
            "print(code, 'logging' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert proc.stdout.splitlines()[-1] == "0 False"
        assert proc.stderr.splitlines() == self.MIXED_STDERR


class TestOutputSymlink:
    def test_output_through_a_symlink_updates_its_target(self, run, db_file, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("old\n")
        link = tmp_path / "out.txt"
        link.symlink_to(real.name)
        code, out, _ = run("mine", "--input", db_file, "--max-support", "3",
                           "--output", str(link))
        assert code == 0
        assert out == ""
        assert link.is_symlink()
        assert os.readlink(link) == real.name
        assert real.read_text() == MINE_SIGMA3_EXPECTED


class TestEmitRareBytes:
    def test_emit_rare_is_the_rare_lines_of_emit_both(self, run, tmp_path):
        # A seeded sparse corpus over 14 items: 2-4 items per transaction.
        rng = random.Random(1404)
        items = [f"i{n:02d}" for n in range(14)]
        rows = [" ".join(rng.sample(items, rng.randint(2, 4))) for _ in range(60)]
        assert {item for row in rows for item in row.split()} == set(items)
        path = tmp_path / "sparse.txt"
        path.write_text("\n".join(rows) + "\n")
        args = ("mine", "--input", str(path), "--max-support", "3")
        code_rare, rare, _ = run(*args, "--emit", "rare")
        code_both, both, _ = run(*args, "--emit", "both")
        assert code_rare == code_both == 0
        expected = "".join(line + "\n" for line in both.splitlines() if line.endswith(" RARE"))
        assert rare == expected
        assert len(rare.splitlines()) > 50

    def test_emit_rare_on_dense_data(self, run, tmp_path):
        # A seeded dense corpus over 14 items, each in a row with chance 0.7:
        # the longest rows hold 13 or 14 items and most item-sets are present.
        rng = random.Random(1405)
        items = [f"i{n:02d}" for n in range(14)]
        rows = [" ".join(i for i in items if rng.random() < 0.7) for _ in range(200)]
        assert all(rows) and max(len(row.split()) for row in rows) >= 13
        path = tmp_path / "dense.txt"
        path.write_text("\n".join(rows) + "\n")
        args = ("mine", "--input", str(path), "--max-support", "5")
        code_rare, rare, _ = run(*args, "--emit", "rare")
        code_both, both, _ = run(*args, "--emit", "both")
        assert code_rare == code_both == 0
        expected = "".join(line + "\n" for line in both.splitlines() if line.endswith(" RARE"))
        assert rare == expected
        assert len(rare.splitlines()) > 50


def test_emit_nonpresent_is_mine_at_max_support_1(run, tmp_path):
    # A seeded corpus over 10 items, each in a row with chance 0.5: both
    # commands list the never-present combinations, at any --max-support.
    rng = random.Random(1406)
    items = [f"i{n:02d}" for n in range(10)]
    rows = [" ".join(i for i in items if rng.random() < 0.5) for _ in range(80)]
    assert all(rows)
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(rows) + "\n")
    code, expected, _ = run("mine", "--input", str(path), "--max-support", "1")
    assert code == 0 and len(expected.splitlines()) > 50
    for sigma in (1, 40, 81):
        code, out, _ = run("mine", "--input", str(path), "--max-support", str(sigma),
                           "--emit", "nonpresent")
        assert code == 0
        assert out == expected


@pytest.mark.parametrize("argv", [
    ("mine", "--max-support", "2", "--output", "{out}", "--input", "{bad}"),
    ("frequent", "--min-support", "1", "--output", "{out}", "--input", "{bad}"),
    ("classify", "--max-support", "2", "--output", "{out}", "--input", "{bad}"),
    ("monitor", "--max-support", "2", "--cycles", "1", "--cycle-duration", "1000",
     "--store", "{out}", "--events", "{bad}"),
])
def test_non_utf8_input_is_usage_error(tmp_path, argv):
    # The bad byte lies past the first 8 KiB, so the offset is one into the
    # whole file, not into a read buffer.
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 a b\n" * 2000 + b"0 \xff c\n")
    out = tmp_path / "out.txt"
    argv = [arg.format(out=out, bad=bad) for arg in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(rareminer.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "rareminer.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"rareminer: error: {bad}: not valid UTF-8 at byte offset 12002\n"
    assert not out.exists()


def test_a_value_error_from_mining_is_not_a_usage_error(db_file, monkeypatch):
    # Exit 2 means bad input or arguments; an unexpected ValueError is a
    # fault, so it propagates rather than being reported as a usage error.
    def fail(db, config):
        raise ValueError("mining failed")

    monkeypatch.setattr(cli, "mine_rare_masks", fail)
    with pytest.raises(ValueError, match="^mining failed$"):
        main(["mine", "--input", db_file, "--max-support", "3"])


def test_the_cli_stand_ins_keep_their_namesakes_signatures():
    # `cli` binds these four for the benchmark's tracer and imports the
    # module that does the work only when one is called.
    for home, name in (("apriori", "mine_frequent"), ("lattice", "classify_all"),
                       ("monitor", "parse_events"), ("monitor", "replay")):
        real = getattr(importlib.import_module(f"rareminer.{home}"), name)
        assert inspect.signature(getattr(cli, name)) == inspect.signature(real), name


def test_importing_the_cli_loads_no_json_logging_or_dataclasses(tmp_path, db_file):
    # Only the monitor writes JSON, and nothing logs; `mine`, `frequent` and
    # `classify` should not pay for importing either. Nor should any run pay
    # for `dataclasses`, which imports `inspect`, `ast` and `dis`, and a run
    # to standard output not for `tempfile` or `pathlib`. A walk too thin
    # to build the support table, and Apriori, which builds none, should not
    # load `rareminer.supports`. Nor does a subcommand load the package's
    # modules that it does not run. -S keeps site-packages hooks out.
    src = str(Path(rareminer.__file__).parents[1])
    events = tmp_path / "events.txt"
    events.write_text(TestMonitor.EVENTS)
    unloaded = {"logging", "dataclasses", "inspect", "tempfile", "pathlib"}
    files = unloaded | {"json", "rareminer.supports"}
    runs = [
        (["mine", "--max-support", "3", "--input", db_file], files, ["apriori", "lattice", "monitor"]),
        (["frequent", "--min-support", "3", "--input", db_file], files, ["lattice", "monitor"]),
        (["classify", "--max-support", "3", "--input", db_file], files, ["apriori", "monitor", "supports"]),
        (["monitor", "--max-support", "2", "--cycles", "3", "--cycle-duration", "1000",
          "--store", str(tmp_path / "store.jsonl"), "--events", str(events)],
         unloaded, ["apriori", "lattice", "supports"]),
    ]
    for argv, forbidden, modules in runs:
        forbidden = forbidden | {f"rareminer.{name}" for name in modules}
        code = (
            f"import sys; sys.path.insert(0, {src!r}); from rareminer.cli import main; "
            f"code = main({argv!r}); "
            f"loaded = [name for name in {sorted(forbidden)!r} if name in sys.modules]; "
            "print(code, loaded, file=sys.stderr)"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout, argv[0]
        assert proc.stderr == "0 []\n", argv[0]


def test_control_character_labels_keep_joined_string_order(run, tmp_path):
    # "a\x01" sorts after "a" but "a\x01 b" before "a a\x01", because \x01
    # sorts below the space that joins labels: the canonical order compares
    # the joined labels, not the labels one by one.
    path = tmp_path / "ctl.txt"
    path.write_text("a b\na\x01 b\na b\n")
    expected = {
        ("mine", "--max-support", "2"):
            "a\x01 : 1 RARE\na\x01 b : 1 RARE\na a\x01 : 0 NONPRESENT\n"
            "a a\x01 b : 0 NONPRESENT\n",
        ("classify", "--max-support", "2"):
            "a : 2 FREQUENT\na\x01 : 1 RARE\nb : 3 FREQUENT\na\x01 b : 1 RARE\n"
            "a a\x01 : 0 NONPRESENT\na b : 2 FREQUENT\na a\x01 b : 0 NONPRESENT\n",
        ("frequent", "--min-support", "1"):
            "a : 2 FREQUENT\na\x01 : 1 FREQUENT\nb : 3 FREQUENT\na\x01 b : 1 FREQUENT\n"
            "a b : 2 FREQUENT\n",
    }
    for argv, text in expected.items():
        assert run(*argv, "--input", str(path)) == (0, text, "")


def test_byte_order_mark_is_not_part_of_the_first_item(run, tmp_path):
    # One leading U+FEFF is dropped before lines are read, so a file saved
    # with a UTF-8 byte-order mark mines like the same file without it.
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(b"a b\na b\nb c\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    expected = "c : 1 RARE\na c : 0 NONPRESENT\nb c : 1 RARE\na b c : 0 NONPRESENT\n"
    for path in (plain, marked):
        assert run("mine", "--input", str(path), "--max-support", "2") == (0, expected, "")


@pytest.mark.parametrize("argv", [
    ("mine", "--max-support", "2"),
    ("frequent", "--min-support", "1"),
    ("classify", "--max-support", "2"),
])
def test_lone_carriage_return_stays_inside_its_line(run, tmp_path, argv):
    # Lines end at '\n' only, so a lone '\r' separates two items of one
    # transaction, for the command line exactly as for `parse_database`.
    texts = {"cr.txt": "a b\rc d\na b\n", "space.txt": "a b c d\na b\n"}
    dbs = [parse_database(text) for text in texts.values()]
    assert dbs[0].rows == dbs[1].rows
    outputs = []
    for name, text in texts.items():
        (tmp_path / name).write_bytes(text.encode())
        outputs.append(run(*argv, "--input", str(tmp_path / name)))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1]


@pytest.mark.parametrize("argv", [
    ("mine", "--max-support", "3"),
    ("mine", "--max-support", "3", "--emit", "rare"),
    ("frequent", "--min-support", "2"),
    ("classify", "--max-support", "3"),
])
def test_each_output_line_is_rendered_once(run, db_file, monkeypatch, argv):
    # Every output mask passes through one bulk `format_lines` call, once and
    # in output order, and no line is made by a per-line call.
    calls, formatted, per_line = [], [], []
    format_lines = TransactionDatabase.format_lines

    def counted(self, pairs, threshold):
        def passed():
            for mask, support in pairs:
                formatted.append(self.labels_of(mask))
                yield mask, support

        calls.append(threshold)
        return format_lines(self, passed(), threshold)

    monkeypatch.setattr(TransactionDatabase, "format_lines", counted)

    def spy(self, *args, method=TransactionDatabase._joined):
        per_line.append("_joined")
        return method(self, *args)

    monkeypatch.setattr(TransactionDatabase, "_joined", spy)
    code, out, _ = run(*argv, "--input", db_file)
    assert code == 0 and out
    assert per_line == [] and len(calls) == 1
    assert [" ".join(labels) for labels in formatted] == [
        line[:line.rindex(" : ")] for line in out.splitlines()
    ]


# "a\x01" defeats the mask order (see `TransactionDatabase._mask_keys`), so a
# database holding it takes the sorted fallback; one without it keeps the mask
# order.
LINE_LABELS = ("a", "a1", "a\x01", "b", "\u00e9")


@settings(deadline=None, max_examples=60)
@given(
    rows=st.lists(st.lists(st.sampled_from(LINE_LABELS), min_size=1, max_size=5),
                  min_size=1, max_size=12),
    data=st.data(),
)
def test_lines_are_format_result_line_over_the_library(tmp_path_factory, rows, data):
    path = tmp_path_factory.mktemp("lines") / "db.txt"
    path.write_bytes("".join(" ".join(row) + "\n" for row in rows).encode())
    db = parse_database(path.read_text(encoding="utf-8"))
    sigma = data.draw(st.integers(1, len(db) + 1), label="sigma")
    cases = [
        (["classify", "--max-support", str(sigma)],
         sorted(classify_all(db, sigma), key=lambda e: canonical_key(e.itemset.mask, db))),
        (["frequent", "--min-support", str(sigma)], mine_frequent(db, sigma)),
    ] + [
        (["mine", "--max-support", str(sigma), "--emit", emit],
         mine_rare(db, MiningConfig(sigma, emit=emit)))
        for emit in ("both", "rare", "nonpresent")
    ]
    for argv, results in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--input", str(path)]) == 0
        assert out.getvalue() == "".join(
            format_result_line(r.itemset, r.support, r.classification, db) + "\n" for r in results
        ), argv


@pytest.mark.parametrize("emit", ["both", "rare", "nonpresent"])
def test_mine_builds_no_result_objects(run, tmp_path, monkeypatch, emit):
    path = tmp_path / "db.txt"
    rng = random.Random(5)
    path.write_text("".join(" ".join(i for i in "abcdefgh" if rng.random() < 0.5) + " i\n"
                            for _ in range(40)))
    built = {ItemSet: 0, MinedItemSet: 0}
    for cls in built:
        def counted_init(self, *args, cls=cls, init=cls.__init__):
            built[cls] += 1
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted_init)
    code, out, _ = run("mine", "--input", str(path), "--max-support", "4", "--emit", emit)
    assert code == 0 and out.count("\n") > 20
    assert built == {ItemSet: 0, MinedItemSet: 0}


class TestMonitorReplayIsAllOrNothing:
    # Windows of 3 cycles x 1000 ms start at 0, 3000 and 6000. Without the
    # last line the replay prints 4 alerts and stores 5 records; with it, a
    # timestamp goes backwards after two whole windows.
    EVENTS = "0 p q\n1000 p q\n2000 p q\n3000 x\n4000 x\n5000 x\n6000 y\n100 z\n"

    def replay(self, run, tmp_path, store):
        events = tmp_path / "events.txt"
        events.write_text(self.EVENTS)
        return run(
            "monitor", "--events", str(events), "--max-support", "2",
            "--cycles", "3", "--cycle-duration", "1000", "--store", str(store),
        )

    def test_backwards_timestamp_mines_and_stores_nothing(self, run, tmp_path):
        store = tmp_path / "store.jsonl"
        code, out, err = self.replay(run, tmp_path, store)
        assert code == 2
        assert out == ""
        assert "non-monotone" in err
        assert not store.exists()

    def test_backwards_timestamp_leaves_an_existing_store_unchanged(self, run, tmp_path):
        store = tmp_path / "store.jsonl"
        store.write_bytes(b'{"earlier": "record"}\n')
        code, out, _ = self.replay(run, tmp_path, store)
        assert code == 2
        assert out == ""
        assert store.read_bytes() == b'{"earlier": "record"}\n'


class TestStdoutIsUtf8:
    """Stdout gets the bytes an `--output` file gets, UTF-8 with LF, whatever
    encoding the environment gives the stream; stderr is UTF-8 too."""

    def cli(self, encoding, *argv):
        env = {**os.environ, "PYTHONPATH": str(Path(rareminer.__file__).parents[1]),
               "PYTHONIOENCODING": encoding}
        return subprocess.run([sys.executable, "-m", "rareminer.cli", *argv],
                              capture_output=True, env=env)

    @pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
    def test_mine_stdout_is_its_output_file(self, tmp_path, encoding):
        corpus = tmp_path / "db.txt"
        corpus.write_bytes("café b\nb café\né z\n".encode())
        argv = ("mine", "--input", str(corpus), "--max-support", "2")
        written = tmp_path / "out.txt"
        assert self.cli(encoding, *argv, "--output", str(written)).returncode == 0
        proc = self.cli(encoding, *argv)
        assert proc.returncode == 0, proc.stderr
        assert "é".encode() in proc.stdout
        assert proc.stdout == written.read_bytes()

    def test_monitor_alert_under_ascii(self, tmp_path):
        events = tmp_path / "events.txt"
        events.write_bytes("0 café b\n1000 café b\n2000 café b\n".encode())
        proc = self.cli("ascii", "monitor", "--events", str(events), "--max-support", "2",
                        "--cycles", "3", "--cycle-duration", "1000",
                        "--store", str(tmp_path / "store.jsonl"))
        assert proc.returncode == 0, proc.stderr
        assert "ALERT window=0 pattern=b café cycles=3\n".encode() in proc.stdout

    @pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
    def test_warnings_and_errors_are_utf8(self, tmp_path, encoding):
        events = tmp_path / "events.txt"
        events.write_bytes("junk café\n0 p q\n".encode())
        argv = ("monitor", "--max-support", "2", "--cycles", "1", "--cycle-duration", "1000",
                "--store", str(tmp_path / "store.jsonl"), "--events")
        proc = self.cli(encoding, *argv, str(events))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (
            "rareminer: warning: skipping malformed event line 1: 'junk café'\n"
            "rareminer: warning: skipped 1 malformed event line(s)\n"
        ).encode()
        missing = tmp_path / "café.txt"
        proc = self.cli(encoding, *argv, str(missing))
        assert proc.returncode == 1
        assert proc.stderr == (
            f"rareminer: error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        ).encode()
