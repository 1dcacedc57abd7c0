"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line. Criteria 3-6 share one seeded corpus of 500 random databases."""

from __future__ import annotations

import random
import sys
import time
from contextlib import contextmanager

import pytest

from conftest import (
    WORKED_DB_SUPPORTS,
    WORKED_DB_TEXT,
    mined_as_dict,
    random_database,
)
from rareminer import (
    Classification,
    EventWindowConfig,
    MiningConfig,
    classify_all,
    database_from_transactions,
    format_alert_line,
    format_result_line,
    iter_levels,
    mine_frequent,
    mine_rare,
    parse_database,
    parse_events,
    replay,
)

CORPUS_SEED = 20240809
CORPUS_SIZE = 500


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    instances = []
    for _ in range(CORPUS_SIZE):
        db = random_database(rng, max_width=10, max_rows=30)
        sigma = rng.randint(1, len(db) + 1)
        instances.append((db, sigma))
    return instances


def test_criterion_1_worked_database_regression():
    with criterion(1, "worked 5x5 database, sigma=3: exact classes and supports"):
        started = time.monotonic()
        db = parse_database(WORKED_DB_TEXT)

        # the independent exhaustive classifier first
        entries = classify_all(db, 3)
        by_class = {
            tag: {db.render(e.itemset): e.support for e in entries if e.classification.tag == tag}
            for tag in ("FREQUENT", "RARE", "NONPRESENT")
        }
        assert len(by_class["FREQUENT"]) == 8
        assert len(by_class["RARE"]) == 17
        assert len(by_class["NONPRESENT"]) == 6
        for labels, support in WORKED_DB_SUPPORTS.items():
            tag = "FREQUENT" if support >= 3 else ("RARE" if support else "NONPRESENT")
            assert by_class[tag][labels] == support

        # the miner agrees with it exactly
        mined = mined_as_dict(mine_rare(db, MiningConfig(3)), db)
        assert mined == {
            labels: (support, "NONPRESENT" if support == 0 else "RARE")
            for labels, support in WORKED_DB_SUPPORTS.items()
            if support < 3
        }
        frequent = {
            db.render(f.itemset): f.support for f in mine_frequent(db, 3)
        }
        assert frequent == by_class["FREQUENT"]

        # narrative checkpoints
        assert db.support(db.full_itemset()) == 0
        levels = {lv.k: lv for lv in iter_levels(db, MiningConfig(3))}
        assert [db.render(f) for f in levels[3].frequent_record] == ["a b c"]
        # a b, a c and b c lie below the frequent a b c, so they are never
        # counted: level 2 counts only the pairs whose three triples were kept.
        level2_counted = {db.render(m.itemset) for m in levels[2].interesting} | {
            db.render(f) for f in levels[2].frequent_record
        }
        assert level2_counted == {"a d", "a e", "b d", "b e", "c d", "c e", "d e"}
        assert level2_counted.isdisjoint({"a b", "a c", "b c"})
        one_rare = [m for m in levels[1].interesting]
        assert [db.render(m.itemset) for m in one_rare] == ["e"]

        assert time.monotonic() - started < 1.0


def test_criterion_2_nonpresent_mode():
    with criterion(2, "sigma=1 returns exactly the six zero-support item-sets"):
        db = parse_database(WORKED_DB_TEXT)
        got = mined_as_dict(mine_rare(db, MiningConfig(1)), db)
        assert got == {
            "a d e": (0, "NONPRESENT"),
            "b d e": (0, "NONPRESENT"),
            "a b d e": (0, "NONPRESENT"),
            "a c d e": (0, "NONPRESENT"),
            "b c d e": (0, "NONPRESENT"),
            "a b c d e": (0, "NONPRESENT"),
        }


def test_criterion_3_oracle_equivalence(corpus):
    with criterion(3, f"{CORPUS_SIZE} random databases: miner equals the exhaustive classifier"):
        started = time.monotonic()
        for db, sigma in corpus:
            expected = {
                e.itemset.mask: (e.support, e.classification)
                for e in classify_all(db, sigma)
                if e.support < sigma
            }
            got = {
                m.itemset.mask: (m.support, m.classification)
                for m in mine_rare(db, MiningConfig(sigma))
            }
            assert got == expected
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_4_partition(corpus):
    with criterion(4, "rare/non-present and frequent outputs partition the lattice"):
        for db, sigma in corpus:
            below = {m.itemset.mask for m in mine_rare(db, MiningConfig(sigma))}
            frequent = {f.itemset.mask for f in mine_frequent(db, sigma)}
            assert below.isdisjoint(frequent)
            assert below | frequent == set(range(1, 1 << db.width))


def test_criterion_5_prune_invariance(corpus):
    with criterion(5, "disabling pruning is byte-identical"):
        for db, sigma in corpus:
            def rendered(pruning):
                return "\n".join(
                    format_result_line(m.itemset, m.support, m.classification, db)
                    for m in mine_rare(
                        db, MiningConfig(sigma, pruning_enabled=pruning)
                    )
                )
            assert rendered(True) == rendered(False)


def test_criterion_6_closure(corpus):
    with criterion(6, "miner output upward-closed, baseline output downward-closed"):
        for db, sigma in corpus:
            width = db.width
            below = {m.itemset.mask for m in mine_rare(db, MiningConfig(sigma))}
            for mask in below:
                for bit in range(width):
                    assert mask | (1 << bit) in below
            frequent = {f.itemset.mask for f in mine_frequent(db, sigma)}
            for mask in frequent:
                for bit in range(width):
                    child = mask & ~(1 << bit)
                    if child:
                        assert child in frequent


EVENT_STREAM_ALL_CYCLES = """\
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

EVENT_STREAM_TWO_OF_THREE = EVENT_STREAM_ALL_CYCLES.replace("2000 p q\n", "")

EVENT_STREAM_FREQUENT = """\
0 p q
1 p q
2 x
1000 p q
1001 p q
1002 x
2000 p q
2001 p q
2002 x
"""


def _alert_labels_by_brute_force(stream_text, sigma, cycles, duration):
    events = parse_events(stream_text).events
    start = events[0].timestamp
    buckets = [[] for _ in range(cycles)]
    for event in events:
        buckets[(event.timestamp - start) // duration].append(event.items)
    detected: dict[tuple[str, ...], int] = {}
    for bucket in buckets:
        db = database_from_transactions(bucket)
        for entry in classify_all(db, sigma):
            if entry.classification is Classification.RARE:
                labels = db.labels_of(entry.itemset)
                detected[labels] = detected.get(labels, 0) + 1
    return {labels for labels, n in detected.items() if n >= cycles}


def _run_monitor(stream_text, store_path):
    alerts: list[str] = []
    config = EventWindowConfig(2, 3, 1000, store_path)
    reports = replay(
        parse_events(stream_text).events,
        config,
        alert_sink=lambda a: alerts.append(format_alert_line(a)),
    )
    return reports, alerts


def test_criterion_7_monitor_scenarios(tmp_path):
    with criterion(7, "3-cycle replay scenarios alert exactly as the per-bucket oracle says"):
        # (a) planted pattern rare in all three cycles: exactly one alert for it
        reports, alerts = _run_monitor(EVENT_STREAM_ALL_CYCLES, tmp_path / "a.jsonl")
        pair_alerts = [a for a in reports[0].alerts if a.labels == ("p", "q")]
        assert len(pair_alerts) == 1
        assert {a.labels for a in reports[0].alerts} == _alert_labels_by_brute_force(
            EVENT_STREAM_ALL_CYCLES, 2, 3, 1000
        )

        # (b) rare in two of three cycles: no alert
        reports, _ = _run_monitor(EVENT_STREAM_TWO_OF_THREE, tmp_path / "b.jsonl")
        assert all(a.labels != ("p", "q") for a in reports[0].alerts)
        assert {a.labels for a in reports[0].alerts} == _alert_labels_by_brute_force(
            EVENT_STREAM_TWO_OF_THREE, 2, 3, 1000
        )

        # (c) frequent in every cycle: no alert for it
        reports, _ = _run_monitor(EVENT_STREAM_FREQUENT, tmp_path / "c.jsonl")
        assert all(a.labels != ("p", "q") for a in reports[0].alerts)
        assert {a.labels for a in reports[0].alerts} == _alert_labels_by_brute_force(
            EVENT_STREAM_FREQUENT, 2, 3, 1000
        )

        # byte-exact replay determinism across two runs
        _, alerts_1 = _run_monitor(EVENT_STREAM_ALL_CYCLES, tmp_path / "d1.jsonl")
        _, alerts_2 = _run_monitor(EVENT_STREAM_ALL_CYCLES, tmp_path / "d2.jsonl")
        assert alerts_1 == alerts_2
        assert (tmp_path / "d1.jsonl").read_bytes() == (tmp_path / "d2.jsonl").read_bytes()


def test_criterion_8_desk_scale_performance():
    with criterion(8, "16 items x 200 transactions mines to completion in under 10 s"):
        rng = random.Random(CORPUS_SEED)
        labels = [f"i{j:02d}" for j in range(16)]
        rows = []
        for _ in range(200):
            row = [label for label in labels if rng.random() < 0.5]
            if not row:
                row = [rng.choice(labels)]
            rows.append(row)
        db = database_from_transactions(rows, universe=labels)
        assert db.width == 16 and len(db) == 200
        started = time.monotonic()
        results = mine_rare(db, MiningConfig(5))
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"mining took {elapsed:.1f}s"
        assert results, "a random 16-item database surely has rare item-sets"
        assert all(m.support < 5 for m in results)
