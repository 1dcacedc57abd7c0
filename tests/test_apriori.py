"""The classical frequent miner and its partition against the rare miner."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_LABELS, WORKED_DB_SUPPORTS, counting_builds, counting_item_ands, random_database
from rareminer import (
    Classification,
    ItemSet,
    MinedItemSet,
    MiningConfig,
    TransactionDatabase,
    classify_all,
    database_from_transactions,
    iter_supported,
    join_candidates,
    mine_frequent,
    mine_rare,
    parse_database,
)


def frequent_as_dict(results, db):
    return {db.render(r.itemset): r.support for r in results}


class TestWorkedExample:
    def test_minsupp_3(self, worked_db):
        got = frequent_as_dict(mine_frequent(worked_db, 3), worked_db)
        assert got == {
            "a": 3, "b": 4, "c": 4, "d": 3,
            "a b": 3, "a c": 3, "b c": 3,
            "a b c": 3,
        }

    def test_minsupp_above_db_size_is_empty(self, worked_db):
        assert mine_frequent(worked_db, len(worked_db) + 1) == []

    def test_minsupp_1_is_the_coverage(self, worked_db):
        got = frequent_as_dict(mine_frequent(worked_db, 1), worked_db)
        expected = {
            labels: support
            for labels, support in WORKED_DB_SUPPORTS.items()
            if support >= 1
        }
        assert got == expected
        assert len(got) == 25

    def test_minsupp_validation(self, worked_db):
        with pytest.raises(ValueError):
            mine_frequent(worked_db, 0)


class TestJoin:
    def test_three_pairs_join_to_one_triple(self, worked_db):
        frequent = [
            worked_db.itemset_from_labels(two) for two in ("ab", "ac", "bc")
        ]
        got = join_candidates(frequent)
        assert [worked_db.render(c) for c in got] == ["a b c"]

    def test_disjoint_pairs_produce_nothing(self, worked_db):
        frequent = [
            worked_db.itemset_from_labels("ab"),
            worked_db.itemset_from_labels("cd"),
        ]
        assert join_candidates(frequent) == []

    def test_subset_prune_removes_the_join(self, worked_db):
        # ab and ac join to abc, but bc is not frequent, so abc is dropped
        frequent = [
            worked_db.itemset_from_labels("ab"),
            worked_db.itemset_from_labels("ac"),
        ]
        assert join_candidates(frequent) == []

    def test_singletons_join_to_all_pairs(self, worked_db):
        singles = [worked_db.itemset_from_labels(one) for one in "abc"]
        got = {worked_db.render(c) for c in join_candidates(singles)}
        assert got == {"a b", "a c", "b c"}

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError, match="mixed item-set widths"):
            join_candidates([ItemSet(1, 3), ItemSet(1, 4)])

    def test_mixed_cardinalities_rejected(self):
        # Unchecked, the pair 01 | 10 would come back as a candidate that is
        # also the member 011.
        with pytest.raises(ValueError, match="mixed cardinalities"):
            join_candidates([ItemSet(0b001, 3), ItemSet(0b010, 3), ItemSet(0b011, 3)])


class TestDegenerateInputs:
    def test_empty_database(self):
        assert mine_frequent(parse_database(""), 1) == []

    def test_no_transactions_forced_universe(self):
        from rareminer import database_from_transactions

        db = database_from_transactions([], universe=["a", "b"])
        assert mine_frequent(db, 1) == []


class TestProperties:
    def test_matches_the_exhaustive_classifier(self):
        rng = random.Random(20240810)
        for _ in range(60):
            db = random_database(rng)
            minsupp = rng.randint(1, len(db) + 1)
            got = {
                r.itemset.mask: r.support for r in mine_frequent(db, minsupp)
            }
            expected = {
                e.itemset.mask: e.support
                for e in classify_all(db, minsupp)
                if e.classification is Classification.FREQUENT
            }
            assert got == expected

    def test_partition_with_the_rare_miner(self):
        rng = random.Random(20240811)
        for _ in range(60):
            db = random_database(rng)
            sigma = rng.randint(1, len(db) + 1)
            frequent = {r.itemset.mask for r in mine_frequent(db, sigma)}
            below = {m.itemset.mask for m in mine_rare(db, MiningConfig(sigma))}
            assert frequent.isdisjoint(below)
            assert frequent | below == set(range(1, 1 << db.width))

    def test_downward_closure(self):
        rng = random.Random(20240812)
        for _ in range(40):
            db = random_database(rng, max_width=8)
            minsupp = rng.randint(1, len(db) + 1)
            frequent = {r.itemset.mask for r in mine_frequent(db, minsupp)}
            for mask in frequent:
                ids = [i for i in range(db.width) if mask >> i & 1]
                for size in range(1, len(ids)):
                    for subset in combinations(ids, size):
                        sub_mask = 0
                        for i in subset:
                            sub_mask |= 1 << i
                        assert sub_mask in frequent


def mask_of(ids):
    return sum(1 << i for i in ids)


@st.composite
def k_set_families(draw):
    """(width, k, distinct k-set masks) over at most 8 items."""
    width = draw(st.integers(1, 8))
    k = draw(st.integers(1, width))
    all_k_sets = [mask_of(ids) for ids in combinations(range(width), k)]
    return width, k, draw(st.lists(st.sampled_from(all_k_sets), unique=True))


@st.composite
def small_databases(draw):
    """(database over at most 8 items, minsupp in [1, |D|+1])."""
    universe = CORPUS_LABELS[: draw(st.integers(1, 8))]
    rows = draw(st.lists(st.lists(st.sampled_from(universe), min_size=1), max_size=30))
    db = database_from_transactions(rows, universe=universe)
    return db, draw(st.integers(1, len(db) + 1))


class TestMaskJoin:
    @settings(deadline=None, max_examples=200)
    @given(k_set_families())
    def test_join_is_exactly_the_extensions_with_all_subsets_members(self, case):
        width, k, family = case
        members = set(family)
        expected = sorted(
            mask_of(ids)
            for ids in combinations(range(width), k + 1)
            if all(mask_of(sub) in members for sub in combinations(ids, k))
        )
        got = join_candidates([ItemSet(mask, width) for mask in family])
        assert [c.mask for c in got] == expected
        assert all(c.width == width for c in got)

    @settings(deadline=None, max_examples=100)
    @given(small_databases())
    def test_mine_frequent_equals_the_oracle_frequent_class(self, case):
        db, minsupp = case
        expected = sorted(
            (
                (e.itemset, e.support)
                for e in classify_all(db, minsupp)
                if e.classification is Classification.FREQUENT
            ),
            key=lambda pair: (pair[0].cardinality, db.render(pair[0])),
        )
        got = [(r.itemset, r.support) for r in mine_frequent(db, minsupp)]
        assert got == expected


class TestOneResultType:
    @settings(deadline=None, max_examples=100)
    @given(small_databases())
    def test_rare_plus_frequent_is_the_oracle_as_objects(self, case):
        db, sigma = case
        union = mine_rare(db, MiningConfig(sigma)) + mine_frequent(db, sigma)
        assert sorted(union, key=lambda r: r.itemset.mask) == classify_all(db, sigma)

    def test_each_result_gets_one_itemset_and_no_candidate_gets_one(self, worked_db, monkeypatch):
        counted = []
        ands = counting_item_ands(worked_db)
        built = counting_builds(monkeypatch)
        count = TransactionDatabase.support_of_mask

        def counting_count(self, mask):
            counted.append(mask)
            return count(self, mask)

        monkeypatch.setattr(TransactionDatabase, "support_of_mask", counting_count)
        results = mine_frequent(worked_db, 2)
        # 5 items, 10 pairs and the triples a b c and b c d are counted, each
        # by one AND of tid-lists and none by `support_of_mask`; 12 are frequent.
        assert (len(ands), len(results)) == (17, 12)
        assert counted == []
        assert built[ItemSet] == built[MinedItemSet] == [r.itemset.mask for r in results]


class TestSupportedWalk:
    @settings(deadline=None, max_examples=100)
    @given(small_databases())
    def test_yields_every_supported_itemset_once_by_level_then_mask(self, case):
        db, minsupp = case
        expected = sorted(
            (e.itemset.cardinality, e.itemset.mask, e.support)
            for e in classify_all(db, minsupp)
            if e.support >= minsupp
        )
        levels = list(iter_supported(db, minsupp))
        # One non-empty {mask: support} dict per cardinality, ascending.
        assert [{m.bit_count() for m in level} for level in levels] == [
            {k} for k in range(1, len(levels) + 1)
        ]
        assert [(m.bit_count(), m, s) for level in levels for m, s in level.items()] == expected
