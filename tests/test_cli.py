"""Command-line behaviour: output bytes, exit codes, cross-command contracts."""

from __future__ import annotations

import json
import os
import random
import stat

import pytest

from conftest import WORKED_DB_TEXT
from rareminer.cli import main

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

    def test_no_prune_is_byte_identical(self, run, db_file):
        _, pruned, _ = run("mine", "--input", db_file, "--max-support", "3")
        _, unpruned, _ = run(
            "mine", "--input", db_file, "--max-support", "3", "--no-prune"
        )
        assert pruned == unpruned

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

    def test_non_monotone_events_are_usage_error(self, run, tmp_path):
        events = self.write_events(tmp_path, "900 x\n100 y\n")
        store = str(tmp_path / "store.jsonl")
        code, _, err = run(*self.monitor_args(events, store))
        assert code == 2
        assert "non-monotone" in err

    def test_malformed_lines_warn_on_stderr(self, run, tmp_path):
        events = self.write_events(tmp_path, "junk\n0 a\n500 a\n500 a\n")
        store = str(tmp_path / "store.jsonl")
        code, out, err = run(
            "monitor", "--events", events, "--max-support", "2",
            "--cycles", "1", "--cycle-duration", "1000", "--store", store,
        )
        assert code == 0
        assert "skipped 1 malformed" in err

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
