"""The exhaustive classifier is the ground truth; pin it down first."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from conftest import (
    WORKED_DB_SUPPORTS,
    label_rows,
    naive_label_support,
    random_database,
)
from rareminer import (
    Classification,
    ItemUniverseError,
    TransactionDatabase,
    classify_all,
    coverage,
    database_from_transactions,
    parse_database,
)


def entries_as_dict(entries, db):
    return {
        db.render(e.itemset): (e.support, e.classification.tag) for e in entries
    }


class TestWorkedDatabase:
    def test_full_classification_sigma_3(self, worked_db):
        entries = classify_all(worked_db, 3)
        assert len(entries) == 31
        got = entries_as_dict(entries, worked_db)
        for labels, support in WORKED_DB_SUPPORTS.items():
            if support >= 3:
                tag = "FREQUENT"
            elif support > 0:
                tag = "RARE"
            else:
                tag = "NONPRESENT"
            assert got[labels] == (support, tag), labels
        counts = Counter(tag for _, tag in got.values())
        assert counts == {"FREQUENT": 8, "RARE": 17, "NONPRESENT": 6}

    def test_sigma_1_has_no_rare_class(self, worked_db):
        entries = classify_all(worked_db, 1)
        counts = Counter(e.classification for e in entries)
        assert counts[Classification.RARE] == 0
        assert counts[Classification.FREQUENT] == 25
        assert counts[Classification.NONPRESENT] == 6

    def test_coverage_is_25(self, worked_db):
        assert len(coverage(worked_db)) == 25

    def test_coverage_equals_frequent_union_rare_for_all_sigma(self, worked_db):
        covered = {c.mask for c in coverage(worked_db)}
        for sigma in range(1, len(worked_db) + 2):
            present = {
                e.itemset.mask
                for e in classify_all(worked_db, sigma)
                if e.classification is not Classification.NONPRESENT
            }
            assert present == covered


def test_referee_does_not_use_the_miners_counter(worked_db, monkeypatch):
    def refuse(self, mask):
        raise AssertionError("classify_all called TransactionDatabase.support_of_mask")

    monkeypatch.setattr(TransactionDatabase, "support_of_mask", refuse)
    got = {labels: support for labels, (support, _) in
           entries_as_dict(classify_all(worked_db, 3), worked_db).items()}
    assert got == WORKED_DB_SUPPORTS
    assert len(coverage(worked_db)) == 25


class TestDegenerateInputs:
    def test_no_transactions_forced_universe(self):
        db = database_from_transactions([], universe=["a", "b", "c"])
        entries = classify_all(db, 2)
        assert len(entries) == 7
        assert all(e.classification is Classification.NONPRESENT for e in entries)
        assert coverage(db) == []

    def test_empty_database(self):
        db = parse_database("")
        assert classify_all(db, 1) == []
        assert coverage(db) == []

    def test_single_transaction_single_item(self):
        db = parse_database("a\n")
        covered = coverage(db)
        assert [db.render(c) for c in covered] == ["a"]


class TestContracts:
    def test_cap_refusal(self):
        db = database_from_transactions([], universe=[f"x{i}" for i in range(17)])
        with pytest.raises(ItemUniverseError):
            classify_all(db, 1)
        with pytest.raises(ItemUniverseError):
            coverage(db)
        # the cap is a parameter, not a constant of nature
        assert len(classify_all(db, 1, max_items=17)) == 2**17 - 1

    def test_sigma_validation(self, worked_db):
        with pytest.raises(ValueError):
            classify_all(worked_db, 0)

    def test_enumeration_order_is_mask_order(self, worked_db):
        entries = classify_all(worked_db, 3)
        assert [e.itemset.mask for e in entries] == list(range(1, 32))


def test_class_counts_sum_and_supports_match_label_scan():
    rng = random.Random(20240802)
    for _ in range(40):
        db = random_database(rng, max_width=7, max_rows=15)
        sigma = rng.randint(1, len(db) + 1)
        entries = classify_all(db, sigma)
        assert len(entries) == 2**db.width - 1
        rows = label_rows(db)
        for e in entries:
            assert e.support == naive_label_support(rows, db.labels_of(e.itemset))
            if e.support >= sigma:
                assert e.classification is Classification.FREQUENT
            elif e.support > 0:
                assert e.classification is Classification.RARE
            else:
                assert e.classification is Classification.NONPRESENT
