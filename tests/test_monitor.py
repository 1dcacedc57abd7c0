"""Event parsing, window mining, alerting, and persistence."""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rareminer.monitor as monitor
from rareminer import (
    Alert,
    Event,
    EventWindowConfig,
    MiningConfig,
    PatternRecurrence,
    ReplayOrderError,
    WindowReport,
    classify_all,
    database_from_transactions,
    format_alert_line,
    mine_rare,
    parse_events,
    replay,
    run_window,
)

# Three cycles of 1000 ms. The pair (p, q) occurs once per cycle while x is
# frequent filler, so with sigma=2 the rare sets of every cycle are
# {p}, {q} and {p q}.
ALERTING_STREAM = """\
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


# Characters the JSON escaper treats specially, or that look as if it might:
# quotes, backslashes, every C0 control, DEL, the Unicode line and paragraph
# separators, and non-ASCII text inside and beyond the basic plane.
STORE_LABEL_CHARS = (
    '"', "\\", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029", "é", "Ω", "\U0001F600"
)
# Any other character an event file can hold: UTF-8 text has no lone surrogates.
LABEL_CHARS = st.characters(exclude_categories=("Cs",))


def config(tmp_path, sigma=2, cycles=3, duration=1000):
    return EventWindowConfig(sigma, cycles, duration, tmp_path / "store.jsonl")


def events_of(text):
    return parse_events(text).events


class TestEventParsing:
    def test_basic_line(self):
        parsed = parse_events("1500 login_fail admin_path\n")
        assert parsed.events == (Event(1500, ("login_fail", "admin_path")),)
        assert parsed.skipped == 0

    def test_blank_and_comment_lines_skipped_silently(self):
        parsed = parse_events("# cycle one\n\n10 a\n   \n20 b\n")
        assert len(parsed.events) == 2
        assert parsed.skipped == 0

    def test_malformed_lines_counted_not_fatal(self):
        parsed = parse_events("oops a\n10 a\n-5 b\n20\n30 b\n")
        assert [e.timestamp for e in parsed.events] == [10, 30]
        assert parsed.skipped == 3

    def test_non_monotone_timestamps_raise(self):
        with pytest.raises(ReplayOrderError):
            parse_events("900 x\n100 y\n")

    def test_equal_timestamps_allowed(self):
        parsed = parse_events("100 x\n100 y\n")
        assert len(parsed.events) == 2

    def test_duplicate_items_collapse_in_order(self):
        parsed = parse_events("10 b a b\n")
        assert parsed.events[0].items == ("b", "a")

    def test_event_validation(self):
        with pytest.raises(ValueError):
            Event(-1, ("a",))
        with pytest.raises(ValueError):
            Event(0, ())


class TestEventLineEnds:
    """An event line ends at '\n' only; one trailing '\r' is dropped."""

    @pytest.mark.parametrize("separator", ["\x0c", "\u2028"])
    def test_form_feed_and_line_separator_stay_in_their_line(self, separator):
        parsed = parse_events(f"5 a b{separator}c\n")
        assert parsed.events == (Event(5, ("a", "b", "c")),)
        assert parsed.skipped == 0

    def test_crlf_reads_like_lf(self):
        text = "# header\n10 a b\n\n20\noops x\n30 b\n"
        assert parse_events(text.replace("\n", "\r\n")) == parse_events(text)


class TestEventTimestamps:
    """A timestamp is all ASCII decimal digits; any other line is skipped and counted."""

    @pytest.mark.parametrize("stamp", ["+5", "1_000", "\u0663"])
    def test_int_literals_beyond_ascii_digits_skipped(self, stamp):
        parsed = parse_events(f"{stamp} a\n7 b\n")
        assert parsed.events == (Event(7, ("b",)),)
        assert parsed.skipped == 1

    @pytest.mark.parametrize("line", ["-5 a", "t5 a", "5"])
    def test_signed_prefixed_and_bare_timestamps_still_skipped(self, line):
        parsed = parse_events(f"{line}\n7 b\n")
        assert parsed.events == (Event(7, ("b",)),)
        assert parsed.skipped == 1

    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                        reason="this interpreter converts 5,000 digits to an int")
    def test_timestamp_over_the_int_string_limit_skipped(self):
        parsed = parse_events("1" * 5000 + " a\n0 b\n")
        assert parsed.malformed == ((1, "1" * 5000 + " a"),)
        assert parsed.events == (Event(0, ("b",)),)


class TestConfig:
    def test_window_is_exactly_cycles_times_duration(self, tmp_path):
        assert config(tmp_path, cycles=3, duration=250).window_ms == 750

    @pytest.mark.parametrize("kwargs", [
        {"sigma": 0}, {"cycles": 0}, {"duration": 0},
    ])
    def test_positive_parameters_required(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            config(tmp_path, **kwargs)


def brute_force_alert_labels(buckets, sigma, cycles):
    """Per-bucket exhaustive classification, then patterns rare in >= cycles."""
    detected: dict[tuple[str, ...], int] = {}
    for bucket in buckets:
        db = database_from_transactions(bucket)
        for entry in classify_all(db, sigma):
            if 0 < entry.support < sigma:
                labels = db.labels_of(entry.itemset.mask)
                detected[labels] = detected.get(labels, 0) + 1
    return {labels for labels, n in detected.items() if n >= cycles}


class TestWindowScenarios:
    def test_pattern_rare_in_every_cycle_alerts_once(self, tmp_path):
        seen = []
        report = run_window(
            events_of(ALERTING_STREAM), config(tmp_path), alert_sink=seen.append
        )
        pair_alerts = [a for a in report.alerts if a.labels == ("p", "q")]
        assert len(pair_alerts) == 1
        assert pair_alerts[0].cycles_detected == 3
        assert pair_alerts[0].supports_per_cycle == (1, 1, 1)
        assert seen == list(report.alerts)
        buckets = [
            [("p", "q"), ("x",), ("x",), ("x",)] for _ in range(3)
        ]
        assert {a.labels for a in report.alerts} == brute_force_alert_labels(
            buckets, sigma=2, cycles=3
        )

    def test_pattern_rare_in_two_of_three_cycles_stays_silent(self, tmp_path):
        # third cycle has no p q event
        text = ALERTING_STREAM.replace("2000 p q\n", "")
        report = run_window(events_of(text), config(tmp_path))
        assert all(a.labels != ("p", "q") for a in report.alerts)
        recurrence = {r.labels: r.cycles_detected for r in report.recurrences}
        assert recurrence[("p", "q")] == 2

    def test_frequent_pattern_never_alerts(self, tmp_path):
        # p q twice per cycle is frequent at sigma=2; x once per cycle is rare
        lines = []
        for cycle in range(3):
            base = cycle * 1000
            lines += [f"{base} p q", f"{base + 1} p q", f"{base + 2} x"]
        report = run_window(events_of("\n".join(lines)), config(tmp_path))
        assert {a.labels for a in report.alerts} == {("x",)}
        assert all(("p", "q") != r.labels for r in report.recurrences)

    def test_nonpresent_combinations_never_counted(self, tmp_path):
        # p and x never co-occur, so {p x} has support 0 in every cycle and
        # must not show up in recurrences, let alone alerts
        report = run_window(events_of(ALERTING_STREAM), config(tmp_path))
        assert all(r.labels != ("p", "x") for r in report.recurrences)

    def test_empty_cycle_buckets_are_legal(self, tmp_path):
        text = "0 p\n2500 p\n"
        report = run_window(events_of(text), config(tmp_path))
        assert report.alerts == ()
        recurrence = {r.labels: r.cycles_detected for r in report.recurrences}
        assert recurrence == {("p",): 2}

    def test_single_cycle_window_alerts_immediately(self, tmp_path):
        report = run_window(
            events_of("0 a\n1 b\n1 b\n"), config(tmp_path, cycles=1)
        )
        assert {a.labels for a in report.alerts} == {("a",)}


class TestCycleBucketing:
    def test_per_cycle_mining_equals_standalone_runs(self, tmp_path):
        report = run_window(events_of(ALERTING_STREAM), config(tmp_path))
        bucket = database_from_transactions(
            [("p", "q"), ("x",), ("x",), ("x",)]
        )
        standalone = {
            bucket.labels_of(m.itemset.mask): m.support
            for m in mine_rare(bucket, MiningConfig(2, emit="rare"))
        }
        for recurrence in report.recurrences:
            assert recurrence.labels in standalone
            assert recurrence.last_support == standalone[recurrence.labels]

    def test_no_event_crosses_a_cycle_boundary(self, tmp_path):
        # an event exactly at one cycle duration belongs to the second cycle:
        # q is then rare in only one of two cycles and must not alert
        text = "0 p\n1000 p q\n"
        report = run_window(events_of(text), config(tmp_path, cycles=2))
        recurrence = {r.labels: r.cycles_detected for r in report.recurrences}
        assert recurrence[("q",)] == 1
        assert recurrence[("p",)] == 2

    def test_event_outside_the_window_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="outside window"):
            run_window(events_of("0 a\n3000 b\n"), config(tmp_path))

    def test_only_cycles_holding_events_are_mined(self, tmp_path, monkeypatch):
        # 3 events in cycles 0 and 7 of a 100-cycle window: two mining runs.
        mined = []
        def counting_mine_rare(db, mining_config):
            mined.append(len(db))
            return mine_rare(db, mining_config)
        monkeypatch.setattr(monitor, "mine_rare", counting_mine_rare)
        events = events_of("0 p\n5 p q\n75 q\n")
        report = run_window(events, config(tmp_path, cycles=100, duration=10))
        assert mined == [2, 1]
        recurrence = {r.labels: r.cycles_detected for r in report.recurrences}
        assert recurrence == {("q",): 2, ("p", "q"): 1}


class TestReplayOrder:
    def test_event_before_its_window_start_fails_before_any_window(self, tmp_path):
        # The event at 100 ms follows the window opened at 5000 ms; the
        # window at 0 ms is neither stored nor alerted.
        cfg = config(tmp_path, cycles=1)
        fired = []
        events = [Event(0, ("a",)), Event(5000, ("b",)), Event(100, ("c",))]
        with pytest.raises(ReplayOrderError, match="event at 100 ms .* at 5000 ms"):
            replay(events, cfg, fired.append)
        assert fired == []
        assert not cfg.store_path.exists()

    def test_a_bad_label_in_a_later_window_fails_before_any_window(self, tmp_path):
        # Without the up-front check the first window stores 3 records and
        # fires 3 alerts before the second window raises.
        path = tmp_path / "store.jsonl"
        fired = []
        events = [Event(0, ("a", "b")), Event(5000, ("\ud800",))]
        with pytest.raises(ValueError, match=r"item label '\\ud800' cannot be encoded as UTF-8"):
            replay(events, EventWindowConfig(2, 1, 1000, path), fired.append)
        assert fired == []
        assert not path.exists()

    def test_out_of_order_events_inside_a_window_replay_as_sorted(self, tmp_path):
        # Cycles of 500 ms: the event at 100 ms comes back to cycle 0 after
        # cycle 1 has begun, and the event at 1000 ms opens the next window.
        items = {0: ("p", "q"), 100: ("x",), 500: ("p", "q"), 1000: ("p",)}
        outcomes = []
        for name, stamps in (("given", (0, 500, 100, 1000)), ("sorted", (0, 100, 500, 1000))):
            cfg = config(tmp_path / name, cycles=2, duration=500)
            cfg.store_path.parent.mkdir()
            fired = []
            reports = replay([Event(t, items[t]) for t in stamps], cfg, fired.append)
            outcomes.append((reports, fired, cfg.store_path.read_bytes()))
        assert outcomes[0] == outcomes[1]
        reports, fired, _ = outcomes[0]
        assert [r.window_start for r in reports] == [0, 1000]
        assert [r.events_processed for r in reports] == [3, 1]
        assert [a.labels for a in fired] == [("p",), ("q",), ("p", "q")]


class TestPersistence:
    def test_record_format(self, tmp_path):
        cfg = config(tmp_path)
        run_window(events_of(ALERTING_STREAM), cfg)
        lines = (tmp_path / "store.jsonl").read_text().splitlines()
        assert lines[0] == '{"window_start":0,"itemset":["p"],"cycles_detected":3,"alerted":true}'
        parsed = [json.loads(line) for line in lines]
        assert {tuple(p["itemset"]) for p in parsed} == {("p",), ("q",), ("p", "q")}
        assert all(p["window_start"] == 0 for p in parsed)

    def test_labels_with_control_characters_keep_joined_text_order(self, tmp_path):
        # `str.split` keeps U+0001 inside a label. The joined text "a\x01 b"
        # sorts before "a b", where a label-tuple or a mask key would not.
        report = run_window(events_of("0 a b\n1 a\x01 b\n"), config(tmp_path, cycles=1))
        assert [rec.labels for rec in report.recurrences] == [
            ("a",), ("a\x01",), ("a\x01", "b"), ("a", "b")
        ]
        assert (tmp_path / "store.jsonl").read_bytes() == (
            b'{"window_start":0,"itemset":["a"],"cycles_detected":1,"alerted":true}\n'
            b'{"window_start":0,"itemset":["a\\u0001"],"cycles_detected":1,"alerted":true}\n'
            b'{"window_start":0,"itemset":["a\\u0001","b"],"cycles_detected":1,"alerted":true}\n'
            b'{"window_start":0,"itemset":["a","b"],"cycles_detected":1,"alerted":true}\n'
        )

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(0, 2**64),
        st.lists(
            st.tuples(
                st.lists(st.text(st.sampled_from(STORE_LABEL_CHARS) | LABEL_CHARS), max_size=4)
                .map(tuple),
                st.integers(0, 2**40),
                st.booleans(),
            ),
            max_size=8,
            unique_by=lambda record: record[0],
        ),
    )
    def test_records_are_the_bytes_of_compact_json(self, window_start, records):
        recurrences = tuple(PatternRecurrence(labels, n, 1) for labels, n, _ in records)
        alerts = tuple(Alert(window_start, labels, n, ()) for labels, n, alert in records if alert)
        encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode
        expected = "".join(
            encode({
                "window_start": window_start,
                "itemset": list(labels),
                "cycles_detected": n,
                "alerted": alert,
            }) + "\n"
            for labels, n, alert in records
        )
        with tempfile.TemporaryDirectory() as scratch:
            store = Path(scratch) / "store.jsonl"
            monitor.persist_window(WindowReport(window_start, 0, recurrences, alerts), store)
            assert store.read_bytes() == expected.encode("utf-8")

    def test_empty_table_appends_nothing(self, tmp_path):
        cfg = config(tmp_path)
        run_window([], cfg)
        assert (tmp_path / "store.jsonl").read_text() == ""

    def test_windows_append_grouped_by_start(self, tmp_path):
        cfg = config(tmp_path, cycles=1, duration=100)
        replay(events_of("0 a\n1 b\n1 b\n500 c\n501 d\n501 d\n"), cfg)
        records = [
            json.loads(line)
            for line in (tmp_path / "store.jsonl").read_text().splitlines()
        ]
        starts = [r["window_start"] for r in records]
        assert starts == sorted(starts)
        assert set(starts) == {0, 500}

    def test_unwritable_store_fails_the_window(self, tmp_path):
        cfg = EventWindowConfig(2, 3, 1000, tmp_path / "missing" / "store.jsonl")
        with pytest.raises(OSError):
            run_window(events_of(ALERTING_STREAM), cfg)

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs POSIX file-size limits")
    def test_a_write_that_fails_partway_leaves_the_store_as_it_was(self, tmp_path):
        # A fresh interpreter caps its own file size 100 bytes past the store's
        # end, so the window's 214 bytes of records fail with EFBIG partway.
        events = tmp_path / "events.txt"
        events.write_text(ALERTING_STREAM)
        store = tmp_path / "store.jsonl"
        run_window(events_of(ALERTING_STREAM), EventWindowConfig(2, 3, 1000, store))
        before = store.read_bytes()
        src = str(Path(monitor.__file__).parents[1])
        code = (
            f"import os, resource, signal, sys; sys.path.insert(0, {src!r}); "
            "from rareminer.cli import main; "
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]; "
            "resource.setrlimit(resource.RLIMIT_FSIZE, (os.path.getsize(sys.argv[2]) + 100, hard)); "
            "sys.exit(main(['monitor', '--events', sys.argv[1], '--max-support', '2', "
            "'--cycles', '3', '--cycle-duration', '1000', '--store', sys.argv[2]]))"
        )
        proc = subprocess.run([sys.executable, "-S", "-B", "-c", code, str(events), str(store)],
                              capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert "File too large" in proc.stderr
        assert store.read_bytes() == before

    def test_unwritable_store_fails_before_any_alert_is_reported(self, tmp_path):
        cfg = EventWindowConfig(2, 3, 1000, tmp_path / "missing" / "store.jsonl")
        reported = []
        with pytest.raises(OSError):
            run_window(events_of(ALERTING_STREAM), cfg, reported.append)
        assert reported == []

    def test_a_label_utf8_cannot_encode_fails_before_mining(self, tmp_path, monkeypatch):
        mined = []
        monkeypatch.setattr(monitor, "mine_rare", lambda *args: mined.append(args) or [])
        cfg = config(tmp_path)
        with pytest.raises(ValueError, match=r"item label '\\ud800' cannot be encoded as UTF-8"):
            run_window([Event(0, ("\ud800", "b"))], cfg)
        assert mined == []
        assert not cfg.store_path.exists()


class TestReplay:
    def test_deterministic_across_runs(self, tmp_path):
        alerts_a: list[str] = []
        alerts_b: list[str] = []
        store_a = EventWindowConfig(2, 3, 1000, tmp_path / "a.jsonl")
        store_b = EventWindowConfig(2, 3, 1000, tmp_path / "b.jsonl")
        events = events_of(ALERTING_STREAM)
        replay(events, store_a, lambda a: alerts_a.append(format_alert_line(a)))
        replay(events, store_b, lambda a: alerts_b.append(format_alert_line(a)))
        assert alerts_a == alerts_b
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_windows_start_at_the_first_pending_event(self, tmp_path):
        cfg = config(tmp_path, cycles=2, duration=10)
        reports = replay(events_of("5 a\n9 a\n1000 b\n"), cfg)
        assert [r.window_start for r in reports] == [5, 1000]
        assert [r.events_processed for r in reports] == [2, 1]

    def test_no_events_no_windows(self, tmp_path):
        assert replay([], config(tmp_path)) == []

    def test_alert_line_format(self):
        from rareminer import Alert

        alert = Alert(0, ("admin_path", "login_fail"), 3, (1, 1, 1))
        assert (
            format_alert_line(alert)
            == "ALERT window=0 pattern=admin_path login_fail cycles=3"
        )


class TestOverCapCycles:
    """A cycle over the default item cap is skipped and counted; the replay goes on."""

    WIDE = " ".join(f"w{i}" for i in range(25))

    def test_over_cap_cycle_is_skipped_and_later_windows_run(self, tmp_path):
        cfg = config(tmp_path, cycles=2, duration=100)
        text = f"0 a\n1 b\n100 a\n1000 {self.WIDE}\n1100 a\n2000 a\n2100 a\n"
        reports = replay(events_of(text), cfg)
        assert [r.window_start for r in reports] == [0, 1000, 2000]
        # Cycle 0 of the window at 1000 ms holds 25 distinct items.
        assert [r.skipped_cycles for r in reports] == [(), ((0, 25),), ()]
        # The skipped cycle finds nothing, so its window cannot alert.
        assert reports[1].alerts == ()
        assert {r.labels for r in reports[1].recurrences} == {("a",)}
        assert {a.labels for a in reports[2].alerts} == {("a",)}

    def test_at_the_cap_nothing_is_skipped(self, tmp_path):
        # sigma 1: the full item-set of the cycle is frequent, so mining it is one count.
        at_cap = " ".join(f"w{i}" for i in range(24))
        report = run_window(events_of(f"0 {at_cap}\n"), config(tmp_path, sigma=1, cycles=1))
        assert report.skipped_cycles == ()
        assert report.recurrences == ()


class TestSkipsAreReturnedNotPrinted:
    """The library returns what it skipped and writes nothing to stderr."""

    def test_parse_events_returns_each_malformed_line(self, capfd):
        parsed = parse_events("junk\n0 a b\n+5 c\n")
        assert parsed.events == (Event(0, ("a", "b")),)
        assert parsed.malformed == ((1, "junk"), (3, "+5 c"))
        assert parsed.skipped == 2
        assert capfd.readouterr() == ("", "")

    def test_replay_returns_each_over_cap_cycle(self, tmp_path, capfd):
        wide = " ".join(f"w{i}" for i in range(25))
        cfg = config(tmp_path, cycles=2, duration=100)
        reports = replay(events_of(f"0 a\n100 {wide}\n200 a\n300 {wide} x\n"), cfg)
        assert [(r.window_start, r.skipped_cycles) for r in reports] == [
            (0, ((1, 25),)),
            (200, ((1, 26),)),
        ]
        assert capfd.readouterr() == ("", "")
