"""The top-down rare/non-present miner and the rare-only walk against the
worked example and the exhaustive classifier."""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_LABELS, WORKED_DB_SUPPORTS, mined_as_dict, random_database
from rareminer import (
    Classification,
    ItemSet,
    MiningConfig,
    classify_all,
    database_from_transactions,
    evaluate_candidates,
    format_result_line,
    generate_candidates,
    iter_levels,
    mine_frequent,
    mine_rare,
    parse_database,
    prune_candidates,
)

SIGMA = 3


def expected_family(sigma):
    """What the miner must return, read off the hand-checked support table."""
    out = {}
    for labels, support in WORKED_DB_SUPPORTS.items():
        if support < sigma:
            out[labels] = (support, "NONPRESENT" if support == 0 else "RARE")
    return out


class TestWorkedExample:
    def test_mine_sigma_3(self, worked_db):
        got = mined_as_dict(mine_rare(worked_db, MiningConfig(SIGMA)), worked_db)
        assert got == expected_family(SIGMA)
        assert len(got) == 23

    def test_mine_sigma_1_yields_only_nonpresent(self, worked_db):
        got = mined_as_dict(mine_rare(worked_db, MiningConfig(1)), worked_db)
        assert got == {
            "a d e": (0, "NONPRESENT"),
            "b d e": (0, "NONPRESENT"),
            "a b d e": (0, "NONPRESENT"),
            "a c d e": (0, "NONPRESENT"),
            "b c d e": (0, "NONPRESENT"),
            "a b c d e": (0, "NONPRESENT"),
        }

    def test_mine_sigma_above_db_size_returns_everything(self, worked_db):
        got = mine_rare(worked_db, MiningConfig(len(worked_db) + 1))
        assert len(got) == 2**5 - 1

    def test_emit_filters(self, worked_db):
        rare = mine_rare(worked_db, MiningConfig(SIGMA, emit="rare"))
        nonpresent = mine_rare(worked_db, MiningConfig(SIGMA, emit="nonpresent"))
        assert len(rare) == 17
        assert all(r.support > 0 for r in rare)
        assert len(nonpresent) == 6
        assert all(r.support == 0 for r in nonpresent)


class TestLevelWalk:
    """The level-by-level trace of the worked run, largest sets first."""

    def test_top_level_is_the_full_nonpresent_itemset(self, worked_db):
        levels = {lv.k: lv for lv in iter_levels(worked_db, MiningConfig(SIGMA))}
        top = levels[5]
        assert len(top.interesting) == 1
        (full,) = top.interesting
        assert worked_db.render(full.itemset) == "a b c d e"
        assert full.support == 0
        assert full.classification is Classification.NONPRESENT

    def test_level_4_supports(self, worked_db):
        levels = {lv.k: lv for lv in iter_levels(worked_db, MiningConfig(SIGMA))}
        got = {
            worked_db.render(m.itemset): m.support for m in levels[4].interesting
        }
        assert got == {
            "b c d e": 0,
            "a c d e": 0,
            "a b d e": 0,
            "a b c e": 1,
            "a b c d": 1,
        }
        assert levels[4].frequent_record == ()

    def test_level_3_discards_only_one_frequent_candidate(self, worked_db):
        levels = {lv.k: lv for lv in iter_levels(worked_db, MiningConfig(SIGMA))}
        assert [worked_db.render(f) for f in levels[3].frequent_record] == ["a b c"]
        assert len(levels[3].interesting) == 9

    def test_level_2_prunes_below_the_frequent_triple(self, worked_db):
        levels = {lv.k: lv for lv in iter_levels(worked_db, MiningConfig(SIGMA))}
        candidates = generate_candidates([m.itemset for m in levels[3].interesting])
        rendered = {worked_db.render(c) for c in candidates}
        assert {"a b", "a c", "b c"} <= rendered
        pruned = prune_candidates(candidates, levels[3].frequent_record)
        survivors = {worked_db.render(c) for c in pruned}
        assert survivors == {"a d", "a e", "b d", "b e", "c d", "c e", "d e"}
        assert {worked_db.render(m.itemset) for m in levels[2].interesting} == survivors

    def test_level_1_keeps_d_as_candidate_and_rejects_it_by_support(self, worked_db):
        levels = {lv.k: lv for lv in iter_levels(worked_db, MiningConfig(SIGMA))}
        candidates = generate_candidates([m.itemset for m in levels[2].interesting])
        pruned = prune_candidates(candidates, levels[2].frequent_record)
        assert {worked_db.render(c) for c in pruned} == {"a", "b", "c", "d", "e"}
        assert [worked_db.render(m.itemset) for m in levels[1].interesting] == ["e"]
        assert levels[1].interesting[0].support == 2
        frequent = {
            worked_db.render(f): worked_db.support(f)
            for f in levels[1].frequent_record
        }
        assert frequent == {"a": 3, "b": 4, "c": 4, "d": 3}


class TestCandidateGeneration:
    def test_all_ten_triples_from_the_five_quadruples(self, worked_db):
        level4 = [
            worked_db.itemset_from_labels(labels)
            for labels in ("bcde", "acde", "abde", "abce", "abcd")
        ]
        got = {worked_db.render(c) for c in generate_candidates(level4)}
        expected = {
            " ".join(sorted(combo)) for combo in combinations("abcde", 3)
        }
        assert got == expected

    def test_pair_with_shared_two_items(self, worked_db):
        cde = worked_db.itemset_from_labels("cde")
        bde = worked_db.itemset_from_labels("bde")
        got = generate_candidates([cde, bde])
        assert [worked_db.render(c) for c in got] == ["d e"]

    def test_singleton_input_has_no_pairs(self, worked_db):
        assert generate_candidates([worked_db.itemset_from_labels("abc")]) == []

    def test_mixed_cardinalities_rejected(self, worked_db):
        with pytest.raises(ValueError):
            generate_candidates(
                [
                    worked_db.itemset_from_labels("ab"),
                    worked_db.itemset_from_labels("abc"),
                ]
            )

    def test_matches_literal_pairwise_intersections(self):
        # reference: every intersection of a combinable pair, deduplicated
        rng = random.Random(97)
        for _ in range(200):
            width = rng.randint(2, 10)
            k1 = rng.randint(1, width)
            pool = [m for m in range(1 << width) if bin(m).count("1") == k1]
            level = rng.sample(pool, min(len(pool), rng.randint(1, 12)))
            reference = set()
            for a, b in combinations(level, 2):
                inter = a & b
                if bin(inter).count("1") == k1 - 1:
                    reference.add(inter)
            got = generate_candidates([ItemSet(m, width) for m in level])
            assert {c.mask for c in got} == reference


class TestPruning:
    def test_empty_record_is_a_no_op(self, worked_db):
        candidates = [worked_db.itemset_from_labels("ad")]
        assert prune_candidates(candidates, []) == candidates

    def test_subsets_of_frequent_sets_are_dropped(self, worked_db):
        candidates = [
            worked_db.itemset_from_labels(two)
            for two in ("ab", "ac", "bc", "ad", "de")
        ]
        record = [worked_db.itemset_from_labels("abc")]
        got = {worked_db.render(c) for c in prune_candidates(candidates, record)}
        assert got == {"a d", "d e"}


class TestEvaluation:
    def test_splits_interesting_from_frequent(self, worked_db):
        candidates = [
            worked_db.itemset_from_labels("abc"),
            worked_db.itemset_from_labels("abd"),
        ]
        mined, frequent = evaluate_candidates(candidates, worked_db, SIGMA)
        assert [(worked_db.render(m.itemset), m.support) for m in mined] == [
            ("a b d", 1)
        ]
        assert mined[0].classification is Classification.RARE
        assert [worked_db.render(f) for f in frequent] == ["a b c"]

    def test_sigma_above_db_size_keeps_everything(self, worked_db):
        candidates = [
            worked_db.itemset_from_labels(labels) for labels in ("a", "b", "abc")
        ]
        mined, frequent = evaluate_candidates(
            candidates, worked_db, len(worked_db) + 1
        )
        assert len(mined) == 3
        assert frequent == []

    def test_single_rare_singleton(self, worked_db):
        mined, frequent = evaluate_candidates(
            [worked_db.itemset_from_labels("e")], worked_db, SIGMA
        )
        assert [(worked_db.render(m.itemset), m.support) for m in mined] == [("e", 2)]
        assert frequent == []


class TestDegenerateInputs:
    def test_single_item_frequent_database(self):
        db = parse_database("a\n")
        assert mine_rare(db, MiningConfig(1)) == []

    def test_empty_database(self):
        db = parse_database("")
        assert mine_rare(db, MiningConfig(1)) == []

    def test_no_transactions_forced_universe(self):
        db = database_from_transactions([], universe=["a", "b", "c"])
        got = mine_rare(db, MiningConfig(1))
        assert len(got) == 7
        assert all(m.classification is Classification.NONPRESENT for m in got)

    def test_frequent_full_itemset_means_empty_output(self):
        db = parse_database("a b\na b\na b\n")
        assert mine_rare(db, MiningConfig(2)) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MiningConfig(0)
        with pytest.raises(ValueError):
            MiningConfig(2, emit="everything")


class TestProperties:
    def test_matches_the_exhaustive_classifier(self):
        rng = random.Random(20240803)
        for _ in range(80):
            db = random_database(rng)
            sigma = rng.randint(1, len(db) + 1)
            got = {
                m.itemset.mask: (m.support, m.classification)
                for m in mine_rare(db, MiningConfig(sigma))
            }
            expected = {
                e.itemset.mask: (e.support, e.classification)
                for e in classify_all(db, sigma)
                if e.support < sigma
            }
            assert got == expected

    def test_walk_is_its_public_steps(self):
        rng = random.Random(20240807)
        for _ in range(60):
            db = random_database(rng)
            sigma = rng.randint(1, len(db) + 1)
            for pruning in (True, False):
                levels = list(iter_levels(db, MiningConfig(sigma, pruning_enabled=pruning)))
                full = ItemSet.full(db.width)
                # One-item reductions of the full item-set, ascending by mask.
                reductions = [ItemSet(full.mask ^ 1 << i, db.width) for i in reversed(range(db.width))]
                for depth, level in enumerate(levels):
                    assert level.k == db.width - depth
                    if depth == 0:
                        candidates = [full]
                    elif depth == 1:
                        candidates = reductions
                    else:
                        previous = levels[depth - 1]
                        candidates = generate_candidates([m.itemset for m in previous.interesting])
                        if pruning:
                            candidates = prune_candidates(candidates, previous.frequent_record)
                    kept, frequent = evaluate_candidates(candidates, db, sigma)
                    assert (tuple(kept), tuple(frequent)) == (level.interesting, level.frequent_record)
                assert levels[-1].k == 1 or not levels[-1].interesting

    def test_prune_invariance_bytes(self):
        rng = random.Random(20240804)
        for _ in range(60):
            db = random_database(rng)
            sigma = rng.randint(1, len(db) + 1)
            def render(config):
                return "\n".join(
                    format_result_line(m.itemset, m.support, m.classification, db)
                    for m in mine_rare(db, config)
                )
            assert render(MiningConfig(sigma)) == render(
                MiningConfig(sigma, pruning_enabled=False)
            )

    def test_upward_closure(self):
        rng = random.Random(20240805)
        for _ in range(40):
            db = random_database(rng, max_width=8)
            sigma = rng.randint(1, len(db) + 1)
            mined = {m.itemset.mask for m in mine_rare(db, MiningConfig(sigma))}
            full = (1 << db.width) - 1
            for mask in mined:
                for bit in range(db.width):
                    assert mask | (1 << bit) in mined
                assert full in mined

    def test_monotone_in_sigma(self):
        rng = random.Random(20240806)
        for _ in range(30):
            db = random_database(rng, max_width=8)
            lower = rng.randint(1, len(db) + 1)
            higher = rng.randint(lower, len(db) + 1)
            small = {m.itemset.mask for m in mine_rare(db, MiningConfig(lower))}
            large = {m.itemset.mask for m in mine_rare(db, MiningConfig(higher))}
            assert small <= large

    def test_deterministic_output_bytes(self, worked_db):
        def run():
            return "\n".join(
                format_result_line(m.itemset, m.support, m.classification, worked_db)
                for m in mine_rare(worked_db, MiningConfig(SIGMA))
            )
        assert run() == run()

    def test_output_independent_of_input_line_order(self):
        shuffled = parse_database("c d e\na b c\nb d\na b c e\na b c d\n")
        original = parse_database("a b c d\nb d\na b c e\nc d e\na b c\n")
        def render(db):
            return "\n".join(
                format_result_line(m.itemset, m.support, m.classification, db)
                for m in mine_rare(db, MiningConfig(SIGMA))
            )
        assert render(shuffled) == render(original)


@st.composite
def rare_only_cases(draw):
    """(database over at most 8 items, sigma in [1, |D|+2], pruning flag).

    A drawn cap on the row length makes short rows, where few item-sets are
    present, as common as long ones. Up to four extra rows hold every item,
    so that the full item-set is often frequent and the early exit gets
    exercised.
    """
    universe = CORPUS_LABELS[: draw(st.integers(1, 8))]
    longest = draw(st.integers(1, len(universe)))
    rows = draw(st.lists(
        st.lists(st.sampled_from(universe), min_size=1, max_size=longest), max_size=30
    ))
    rows += [list(universe)] * draw(st.integers(0, 4))
    db = database_from_transactions(rows, universe=universe)
    return db, draw(st.integers(1, len(db) + 2)), draw(st.booleans())


def oracle_class(db, sigma, classification):
    """The oracle's entries of one class, in canonical output order."""
    return sorted(
        (e for e in classify_all(db, sigma) if e.classification is classification),
        key=lambda e: (e.itemset.cardinality, db.render(e.itemset)),
    )


class TestRareOnlyWalk:
    """`emit=rare` walks the present item-sets top-down; the output is unchanged."""

    @settings(deadline=None, max_examples=150)
    @given(rare_only_cases())
    def test_emit_rare_is_the_oracle_rare_class(self, case):
        db, sigma, pruning = case
        got = mine_rare(db, MiningConfig(sigma, pruning_enabled=pruning, emit="rare"))
        assert got == oracle_class(db, sigma, Classification.RARE)

    @settings(deadline=None, max_examples=150)
    @given(rare_only_cases())
    def test_emit_rare_is_the_present_part_of_emit_both(self, case):
        db, sigma, pruning = case
        rare = mine_rare(db, MiningConfig(sigma, pruning_enabled=pruning, emit="rare"))
        both = mine_rare(db, MiningConfig(sigma, pruning_enabled=pruning, emit="both"))
        assert rare == [r for r in both if r.support > 0]

    @settings(deadline=None, max_examples=150)
    @given(rare_only_cases())
    def test_mine_frequent_is_the_oracle_frequent_class(self, case):
        db, sigma, _ = case
        assert mine_frequent(db, sigma) == oracle_class(db, sigma, Classification.FREQUENT)

    @settings(deadline=None, max_examples=150)
    @given(rare_only_cases())
    def test_counts_present_itemsets_once_each_that_the_top_down_walk_counts(self, case):
        db, sigma, pruning = case
        present = {mask for mask in range(1, 1 << db.width) if db.support_of_mask(mask)}
        levels = list(iter_levels(db, MiningConfig(sigma)))
        top_down = {m.itemset.mask for level in levels for m in level.interesting}
        top_down |= {f.mask for level in levels for f in level.frequent_record}
        counted = counting(db)
        mine_rare(db, MiningConfig(sigma, pruning_enabled=pruning, emit="rare"))
        assert len(counted) == len(set(counted))
        assert set(counted) <= present & top_down

    @settings(deadline=None, max_examples=150)
    @given(rare_only_cases())
    def test_counts_no_more_than_the_top_down_walk(self, case):
        db, sigma, pruning = case
        config = MiningConfig(sigma, pruning_enabled=pruning, emit="rare")
        top_down = sum(
            len(level.interesting) + len(level.frequent_record) for level in iter_levels(db, config)
        )
        counted = counting(db)
        mine_rare(db, config)
        assert len(counted) <= top_down

    def test_dense_database_walks_top_down(self):
        # 20 items, each row lacks one of them, 5 rows per missing item, sigma 2:
        # the 20 distinct transactions are all frequent, so the walk is done after
        # 20 counts although 2^20 - 2 item-sets are present.
        labels = [f"i{n}" for n in range(20)]
        rows = [[x for x in labels if x != missing] for missing in labels for _ in range(5)]
        db = database_from_transactions(rows)
        counted = counting(db)
        assert mine_rare(db, MiningConfig(2, emit="rare")) == []
        assert len(counted) == 20

    def test_sparse_database_walks_bottom_up(self):
        # 14 items, 100 rows of 2 or 3: the walk counts only present item-sets,
        # none of more than 3 items (at most 1,470 of up to 4), while the 15,914
        # item-sets of more than 3 items all lie below sigma.
        rng = random.Random(7)
        labels = [f"i{n}" for n in range(14)]
        db = database_from_transactions(rng.sample(labels, rng.randint(2, 3)) for _ in range(100))
        counted = counting(db)
        got = mine_rare(db, MiningConfig(5, emit="rare"))
        assert got and all(0 < r.support < 5 for r in got)
        assert len(counted) <= sum(comb(14, k) for k in range(1, 5))

    def test_frequent_full_itemset_is_one_count(self):
        # 16 items in all 50 transactions: every item-set is frequent at sigma 2.
        labels = [f"i{n}" for n in range(16)]
        db = database_from_transactions([labels] * 50)
        counted = counting(db)
        assert mine_rare(db, MiningConfig(2, emit="rare")) == []
        assert counted == [db.full_itemset().mask]


def counting(db):
    """The masks `db` is asked to count from now on, in order."""
    counted = []
    count = db.support_of_mask
    db.support_of_mask = lambda mask: counted.append(mask) or count(mask)
    return counted
