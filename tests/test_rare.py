"""The top-down rare/non-present miner and the rare-only walk against the
worked example and the exhaustive classifier."""

from __future__ import annotations

import importlib.util
import random
import sys
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_LABELS, WORKED_DB_SUPPORTS, counting_item_ands, mined_as_dict, random_database
import rareminer.monitor as monitor
import rareminer.rare as rare
import rareminer.supports as supports
from rareminer import (
    Classification,
    EventWindowConfig,
    ItemSet,
    MinedItemSet,
    MiningConfig,
    TransactionDatabase,
    classify_all,
    database_from_transactions,
    evaluate_candidates,
    format_result_line,
    generate_candidates,
    iter_levels,
    mine_frequent,
    mine_rare,
    parse_database,
    parse_events,
    prune_candidates,
    replay,
)
from rareminer.apriori import iter_supported
from rareminer.itemsets import classify_support

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
        # a b, a c and b c lie below the frequent a b c, so level 3 did not
        # keep all of their supersets and they are never generated.
        levels = {lv.k: lv for lv in iter_levels(worked_db, MiningConfig(SIGMA))}
        candidates = generate_candidates([m.itemset for m in levels[3].interesting])
        rendered = {worked_db.render(c) for c in candidates}
        assert rendered == {"a d", "a e", "b d", "b e", "c d", "c e", "d e"}
        assert prune_candidates(candidates, levels[3].frequent_record) == candidates
        assert levels[2].frequent_record == ()
        assert {worked_db.render(m.itemset) for m in levels[2].interesting} == rendered

    def test_level_1_keeps_d_as_candidate_and_rejects_it_by_support(self, worked_db):
        # a, b and c each lie below a pair of the frequent a b c, which level 2
        # never counted; d and e have all four of their pairs kept.
        levels = {lv.k: lv for lv in iter_levels(worked_db, MiningConfig(SIGMA))}
        candidates = generate_candidates([m.itemset for m in levels[2].interesting])
        assert [worked_db.render(c) for c in candidates] == ["e", "d"]
        assert [worked_db.render(m.itemset) for m in levels[1].interesting] == ["e"]
        assert levels[1].interesting[0].support == 2
        frequent = {
            worked_db.render(f): worked_db.support_of_mask(f.mask)
            for f in levels[1].frequent_record
        }
        assert frequent == {"d": 3}

    @pytest.mark.parametrize("emit", ["nonpresent", "both"])
    @pytest.mark.parametrize("rows, sigma", [([], 1), ([["a", "b"], ["c"]], 3)])
    def test_walk_stops_after_single_items(self, monkeypatch, emit, rows, sigma):
        # The 1-item level is the last: no candidates are made from it.
        sizes = []
        candidate_masks = rare._candidate_masks

        def spy(masks, width):
            sizes.append(next(iter(masks)).bit_count())
            return candidate_masks(masks, width)

        monkeypatch.setattr(rare, "_candidate_masks", spy)
        db = database_from_transactions(rows, universe=["a", "b", "c"])
        rare.mine_rare_masks(db, MiningConfig(sigma, emit=emit))
        assert sizes == [3, 2]


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
        cde, bde, ade = (worked_db.itemset_from_labels(t) for t in ("cde", "bde", "ade"))
        got = generate_candidates([ade, bde, cde])
        assert [worked_db.render(c) for c in got] == ["d e"]
        # With a d e missing, d e lacks a kept superset: nothing is generated.
        assert generate_candidates([cde, bde]) == []

    def test_singleton_input_has_no_pairs(self, worked_db):
        assert generate_candidates([worked_db.itemset_from_labels("abc")]) == []

    def test_duplicate_members_count_as_one_parent(self, worked_db):
        # Counting the raw member list would give abc's three reductions two
        # parents each, and wrongly return a b, a c and b c.
        abc = worked_db.itemset_from_labels("abc")
        assert generate_candidates([abc, abc]) == []
        assert generate_candidates([abc, ItemSet(abc.mask, abc.width)]) == []

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError, match="widths"):
            generate_candidates([ItemSet(0b011, 3), ItemSet(0b101, 4)])

    def test_mixed_cardinalities_rejected(self, worked_db):
        with pytest.raises(ValueError):
            generate_candidates(
                [
                    worked_db.itemset_from_labels("ab"),
                    worked_db.itemset_from_labels("abc"),
                ]
            )

    def test_matches_every_superset_is_a_member(self):
        # reference: every k-set, by brute force, whose every (k+1)-superset is a member
        rng = random.Random(97)
        for _ in range(300):
            width = rng.randint(2, 16)
            k1 = rng.randint(1, width)
            pool = [m for m in range(1 << width) if m.bit_count() == k1]
            # Small levels rarely cover every superset of anything; near-full ones do.
            size = rng.choice([rng.randint(1, 12), len(pool) - rng.randint(0, 3)])
            level = set(rng.sample(pool, max(1, min(len(pool), size))))
            reference = [
                child
                for child in range(1 << width)
                if child.bit_count() == k1 - 1
                and all(child | 1 << i in level for i in range(width) if not child >> i & 1)
            ]
            got = [c.mask for c in generate_candidates([ItemSet(m, width) for m in level])]
            assert got == reference

    def test_wide_universe_with_small_levels_builds_no_lattice(self):
        # 24 items, each row the universe less one item: both walks make
        # candidates from levels of at most 24 members, while one lattice
        # indicator over 24 items takes 2 MB.
        labels = [f"i{n:02d}" for n in range(24)]
        db = database_from_transactions([labels[:n] + labels[n + 1 :] for n in range(24)])
        full = (1 << 24) - 1
        tracemalloc.start()
        try:
            nonpresent = rare.mine_rare_masks(db, MiningConfig(2, emit="nonpresent"))
            both = rare.mine_rare_masks(db, MiningConfig(2, emit="both"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nonpresent == [(full, 0)]
        assert both == [(full ^ 1 << i, 1) for i in range(24)] + [(full, 0)]
        assert peak < 1_000_000


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
        abc, abd = (worked_db.itemset_from_labels(labels).mask for labels in ("abc", "abd"))
        kept, frequent = evaluate_candidates([abc, abd], worked_db, SIGMA)
        assert kept == {abd: 1}
        assert frequent == {abc: 3}

    def test_sigma_above_db_size_keeps_everything(self, worked_db):
        masks = [worked_db.itemset_from_labels(labels).mask for labels in ("abc", "b", "a")]
        kept, frequent = evaluate_candidates(masks, worked_db, len(worked_db) + 1)
        assert list(kept.items()) == list(zip(masks, (3, 4, 3)))
        assert frequent == {}

    def test_single_rare_singleton(self, worked_db):
        e = worked_db.itemset_from_labels("e").mask
        assert evaluate_candidates([e], worked_db, SIGMA) == ({e: 2}, {})

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_splits_any_candidates_in_order_with_the_referee_supports(self, data):
        # Small databases, any sigma up to |D|+2, and any distinct non-empty
        # masks in any order, including none.
        universe = CORPUS_LABELS[: data.draw(st.integers(1, 6))]
        rows = data.draw(st.lists(st.lists(st.sampled_from(universe), min_size=1), max_size=12))
        db = database_from_transactions(rows, universe=universe)
        sigma = data.draw(st.integers(1, len(db) + 2))
        masks = st.integers(1, (1 << db.width) - 1)
        candidates = data.draw(st.lists(masks, unique=True))
        referee = {e.itemset.mask: e.support for e in classify_all(db, sigma)}
        below, above = evaluate_candidates(candidates, db, sigma)
        assert list(below) == [m for m in candidates if referee[m] < sigma]
        assert list(above) == [m for m in candidates if referee[m] >= sigma]
        assert {**below, **above} == {m: referee[m] for m in candidates}

    def test_levels_classify_zero_support_as_nonpresent(self, worked_db):
        # evaluate_candidates returns bare supports; iter_levels classifies them.
        levels = {lv.k: lv for lv in iter_levels(worked_db, MiningConfig(SIGMA))}
        classes = {worked_db.render(m.itemset): m.classification for m in levels[3].interesting}
        assert classes["a d e"] is Classification.NONPRESENT
        assert classes["a b d"] is Classification.RARE
        for level in levels.values():
            for m in level.interesting:
                assert m.classification is classify_support(m.support, SIGMA)


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
                full = ItemSet((1 << db.width) - 1, db.width)
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
                    kept, frequent = evaluate_candidates([c.mask for c in candidates], db, sigma)
                    interesting = tuple(
                        MinedItemSet(ItemSet(m, db.width), s, classify_support(s, sigma))
                        for m, s in kept.items()
                    )
                    frequent_record = tuple(ItemSet(m, db.width) for m in frequent)
                    assert (interesting, frequent_record) == (level.interesting, level.frequent_record)
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
    """`emit=rare` walks the present item-sets top-down: it counts each
    distinct transaction and each one-item reduction of a rare result once,
    and the output is the oracle's rare class."""

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
    def test_counts_present_itemsets_once_each_within_the_output_bound(self, case):
        db, sigma, pruning = case
        present = {mask for mask in range(1, 1 << db.width) if db.support_of_mask(mask)}
        transactions = set(db.rows)
        counted = counting(db)
        got = mine_rare(db, MiningConfig(sigma, pruning_enabled=pruning, emit="rare"))
        assert set(counted) <= present
        assert len(counted) == len(set(counted))
        assert len(counted) <= len(transactions) + sum(r.itemset.cardinality for r in got)

    @settings(deadline=None, max_examples=150)
    @given(rare_only_cases())
    def test_counts_the_transactions_and_the_reductions_of_its_results_once(self, case):
        db, sigma, _ = case
        counted = counting(db)
        got = mine_rare(db, MiningConfig(sigma, emit="rare"))
        reductions = {r.itemset.mask ^ 1 << i for r in got for i in range(db.width) if r.itemset.mask >> i & 1}
        assert sorted(counted) == sorted(set(db.rows) | (reductions - {0}))

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_levels_are_the_present_rare_itemsets_per_cardinality(self, data):
        universe = CORPUS_LABELS[: data.draw(st.integers(1, 8))]
        rows = data.draw(st.lists(
            st.lists(st.sampled_from(universe), min_size=1, unique=True), max_size=12
        ))
        db = database_from_transactions(rows, universe=universe)
        sigma = data.draw(st.integers(1, len(db) + 2))
        levels = rare._present_rare(db, sigma)
        longest = max((row.bit_count() for row in db.rows), default=0)
        assert len(levels) == longest
        for k, level in zip(range(longest, 0, -1), levels):
            assert list(level) == sorted(level)
            assert all(mask.bit_count() == k for mask in level)
        wanted = {
            e.itemset.mask: e.support
            for e in classify_all(db, sigma)
            if e.classification is Classification.RARE
        }
        assert {m: s for level in levels for m, s in level.items()} == wanted

    def test_builds_one_itemset_per_result(self, monkeypatch):
        # The walk carries masks: a counted candidate that is not kept never
        # becomes an ItemSet.
        db = parse_database(bench_dense_corpus(1))
        counted = counting(db)
        built = []
        init = ItemSet.__init__
        monkeypatch.setattr(
            ItemSet, "__init__", lambda s, mask, width: built.append(mask) or init(s, mask, width)
        )
        got = mine_rare(db, MiningConfig(8, emit="rare"))
        assert len(counted) == 12910
        assert len(built) == len(got) == 9953

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
        assert counted == [(1 << db.width) - 1]


class TestNonpresentWalk:
    """`emit=nonpresent` is the top-down walk at sigma 1, whatever sigma is."""

    @settings(deadline=None, max_examples=150)
    @given(rare_only_cases())
    def test_emit_nonpresent_is_the_oracle_nonpresent_class(self, case):
        db, sigma, pruning = case
        got = mine_rare(db, MiningConfig(sigma, pruning_enabled=pruning, emit="nonpresent"))
        assert got == oracle_class(db, sigma, Classification.NONPRESENT)

    @settings(deadline=None, max_examples=150)
    @given(rare_only_cases())
    def test_counts_what_the_walk_at_sigma_1_counts(self, case):
        db, sigma, pruning = case
        counted = counting(db)
        list(iter_levels(db, MiningConfig(1, pruning_enabled=pruning)))
        walk = counted[:]
        counted.clear()
        mine_rare(db, MiningConfig(sigma, pruning_enabled=pruning, emit="nonpresent"))
        assert counted == walk

    @settings(deadline=None, max_examples=150)
    @given(rare_only_cases())
    def test_counts_no_more_than_the_walk_at_sigma(self, case):
        db, sigma, pruning = case
        config = MiningConfig(sigma, pruning_enabled=pruning, emit="nonpresent")
        top_down = sum(
            len(level.interesting) + len(level.frequent_record) for level in iter_levels(db, config)
        )
        counted = counting(db)
        mine_rare(db, config)
        assert len(counted) <= top_down


def parent_walk_counts(db, sigma, pruning):
    """{k: candidates counted} of the walk the every-superset rule replaced.

    It counted the full item-set, then all its one-item reductions, then
    every k-set with at least two kept (k+1)-supersets, less (when pruning)
    the one-item reductions of the level's frequent record.
    """
    width = db.width
    full = (1 << width) - 1
    candidates = [full]
    counts = {}
    for k in range(width, 0, -1):
        counts[k] = len(candidates)
        kept = [m for m in candidates if db.support_of_mask(m) < sigma]
        frequent = [m for m in candidates if db.support_of_mask(m) >= sigma]
        if not kept:
            break
        if k == width:
            candidates = [full ^ 1 << i for i in range(width)]
            continue
        parents = Counter(m ^ 1 << i for m in kept for i in range(width) if m >> i & 1)
        candidates = [c for c, n in parents.items() if n >= 2]
        if pruning:
            doomed = {f ^ 1 << i for f in frequent for i in range(width) if f >> i & 1}
            candidates = [c for c in candidates if c not in doomed]
    return counts


def bench_dense_corpus(seed):
    """The text of the benchmark's dense corpus (14 items x 400 rows) at `seed`."""
    return bench_generate().dense_corpus(seed).text


def bench_generate():
    """The benchmark's input generators, `bench/generate.py`, as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "generate.py"
    spec = importlib.util.spec_from_file_location("bench_generate", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class TestEverySupersetRule:
    """Each level of the top-down walk counts exactly the k-sets whose every
    (k+1)-superset the level above kept, so nothing is pruned after
    generation and no level counts more than the pairwise walk it replaced."""

    @settings(deadline=None, max_examples=150)
    @given(rare_only_cases())
    def test_counts_a_k_set_iff_every_superset_was_kept(self, case):
        db, sigma, _ = case
        levels = list(iter_levels(db, MiningConfig(sigma)))
        full = (1 << db.width) - 1
        counted = [{m.itemset.mask for m in lv.interesting} | {f.mask for f in lv.frequent_record}
                   for lv in levels]
        assert counted[0] == {full}
        for depth in range(1, len(levels)):
            assert levels[depth].k == levels[depth - 1].k - 1
            kept = {m.itemset.mask for m in levels[depth - 1].interesting}
            expected = {
                child
                for child in range(1, full + 1)
                if child.bit_count() == levels[depth].k
                and all(child | 1 << i in kept for i in range(db.width) if not child >> i & 1)
            }
            assert counted[depth] == expected
        assert levels[-1].k == 1 or not levels[-1].interesting

    @settings(deadline=None, max_examples=150)
    @given(rare_only_cases())
    def test_no_level_counts_more_than_the_pairwise_walk(self, case):
        db, sigma, pruning = case
        parent = parent_walk_counts(db, sigma, pruning)
        levels = list(iter_levels(db, MiningConfig(sigma)))
        assert [lv.k for lv in levels] == list(parent)
        for level in levels:
            assert len(level.interesting) + len(level.frequent_record) <= parent[level.k]

    @settings(deadline=None, max_examples=150)
    @given(rare_only_cases())
    def test_pruning_the_generated_level_removes_nothing(self, case):
        # The benchmark's tracer rebuilds each level this way and checks it
        # against what the walk counted.
        db, sigma, _ = case
        for level in iter_levels(db, MiningConfig(sigma)):
            candidates = generate_candidates([m.itemset for m in level.interesting])
            assert prune_candidates(candidates, level.frequent_record) == candidates

    def test_dense_bench_corpus_counts(self):
        db = parse_database(bench_dense_corpus(1))
        counted = counting(db)
        mine_rare(db, MiningConfig(8, emit="nonpresent"))
        assert len(counted) == 2411
        counted.clear()
        mine_rare(db, MiningConfig(8))
        assert len(counted) == 13463

    def test_dense_bench_corpus_builds_each_object_once(self, monkeypatch):
        # The walk carries masks: one ItemSet per counted candidate, for its
        # level's objects, and one MinedItemSet per result.
        db = parse_database(bench_dense_corpus(1))
        built = {ItemSet: 0, MinedItemSet: 0}
        for cls in built:
            def counted_init(self, *args, cls=cls, init=cls.__init__):
                built[cls] += 1
                init(self, *args)
            monkeypatch.setattr(cls, "__init__", counted_init)
        got = mine_rare(db, MiningConfig(8))
        assert len(got) == 12301
        assert built == {ItemSet: 13463, MinedItemSet: 12301}


class TestBenchCorpusWork:
    """The work of the monitor's walks and of Apriori on the benchmark's
    other two corpora at seed 1, beside the dense pins above: a refactor
    that changes what a walk counts shows here."""

    def test_monitor_stream_counts(self, tmp_path, monkeypatch):
        counted, found = [], []
        count = TransactionDatabase.support_of_mask
        monkeypatch.setattr(TransactionDatabase, "support_of_mask",
                            lambda db, mask: counted.append(mask) or count(db, mask))
        monkeypatch.setattr(monitor, "mine_rare",
                            lambda db, config: found.append(mine_rare(db, config)) or found[-1])
        events = parse_events(bench_generate().monitor_stream(1).text).events
        reports = replay(events, EventWindowConfig(3, 3, 1000, tmp_path / "store.jsonl"))
        assert len(counted) == 2636
        assert len(found) == 24
        assert sum(map(len, found)) == 1381
        assert len(reports) == 8
        assert sum(len(report.alerts) for report in reports) == 4

    def test_zipf_corpus_counts(self):
        db = parse_database(bench_generate().zipf_corpus(1).text)
        counted, ands = counting(db), counting_item_ands(db)
        got = mine_frequent(db, 20)
        # Apriori counts each candidate by one AND of tid-lists, not by `support_of_mask`.
        assert len(ands) == 2735
        assert counted == []
        assert len(got) == 1317


@st.composite
def table_cases(draw):
    """(database over at most 12 items, sigma in [1, |D|+2] or far above it),
    rows of any length."""
    universe = [f"i{n:02d}" for n in range(draw(st.integers(1, 12)))]
    longest = draw(st.integers(1, len(universe)))
    rows = draw(st.lists(
        st.lists(st.sampled_from(universe), min_size=1, max_size=longest), max_size=40
    ))
    db = database_from_transactions(rows, universe=universe)
    return db, draw(st.integers(1, len(db) + 2) | st.sampled_from([1 << 16, 1 << 40]))


def referee_levels(db, sigma):
    """The top-down walk's levels from `classify_all`: per cardinality, the
    kept masks and the frequent ones whose one-item supersets are all kept,
    down to the first level that keeps nothing."""
    entries = {e.itemset.mask: e for e in classify_all(db, sigma)}
    frequent = {m for m, e in entries.items() if e.classification is Classification.FREQUENT}
    by_size = {}
    for mask in sorted(entries):
        by_size.setdefault(mask.bit_count(), []).append(mask)
    levels = []
    for k in range(db.width, 0, -1):
        kept = [m for m in by_size[k] if m not in frequent]
        record = [
            m for m in by_size[k]
            if m in frequent
            and not any(m | 1 << i in frequent for i in range(db.width) if not m >> i & 1)
        ]
        levels.append((k, [(m, entries[m].support) for m in kept],
                       [(m, entries[m].support) for m in record]))
        if not kept:
            break
    return levels


def as_lists(levels):
    """`(k, kept, frequent)` levels with each dict as its list of items, in order."""
    return [(k, list(kept.items()), list(frequent.items())) for k, kept, frequent in levels]


def walk_with_table(db, sigma, pays):
    """The top-down walk's levels, with `_table_pays` answering `pays`."""
    with patch.object(rare, "_table_pays", lambda counted, width: pays):
        return as_lists(rare._top_down(db, sigma))


def table_counts(db):
    """Every support `support_table` gives, against a scan of the rows."""
    return list(supports.support_table(db, 1, 0)[0]), [
        sum(mask & row == mask for row in db.rows) for mask in range(1 << db.width)
    ]


class TestSupportTable:
    """Past a size, the top-down walk counts on one table of all 2^|I|
    supports: the same levels, dicts and order, and the same counts."""

    @settings(deadline=None, max_examples=200)
    @given(table_cases())
    def test_levels_with_and_without_the_table_are_the_referees(self, case):
        db, sigma = case
        expected = referee_levels(db, sigma)
        assert walk_with_table(db, sigma, False) == expected
        assert walk_with_table(db, sigma, True) == expected
        got, scanned = table_counts(db)
        assert got == scanned

    def test_a_copy_reading_the_table_counts_like_its_database(self):
        db = database_from_transactions([["a", "b"], ["b", "c", "d"], ["a", "b", "d"], ["d"]])
        db.support_of_mask(1)
        copy = db._reading(supports.support_table(db, 1, 0)[0])
        # The empty mask, negative masks and masks past the universe too.
        for mask in range(-3, 1 << (db.width + 1)):
            assert copy.support_of_mask(mask) == db.support_of_mask(mask)
        assert "_supports" not in vars(db)
        assert (copy.labels, copy.rows) == (db.labels, db.rows)
        # The copy reads its table, not the index of the database it copied.
        assert db._reading(range(100, 116)).support_of_mask(5) == 105

    def test_every_counted_candidate_is_one_support_count(self, monkeypatch):
        # The table changes what a count costs, not what is counted: the
        # bench tracer's `rare.counted` is its `support_of_mask` calls.
        calls = []
        count = TransactionDatabase.support_of_mask
        monkeypatch.setattr(
            TransactionDatabase, "support_of_mask", lambda db, mask: calls.append(mask) or count(db, mask)
        )
        db = parse_database(bench_dense_corpus(1))
        for sigma in (1, 8, 40):
            calls.clear()
            levels = list(rare._top_down(db, sigma))
            assert calls == [m for _, kept, frequent in levels for m in sorted({**kept, **frequent})]

    def test_dense_walks_build_the_table_and_thin_walks_do_not(self, monkeypatch):
        built = []
        support_table = supports.support_table
        monkeypatch.setattr(
            supports,
            "support_table",
            lambda db, sigma, top: built.append((db, sigma, top)) or support_table(db, sigma, top),
        )
        dense = parse_database(bench_dense_corpus(1))
        rare.mine_rare_masks(dense, MiningConfig(8))
        # The walk counts the 11-item level, makes the 10-item candidates with
        # the Counter rule and takes those of 9 items and fewer from the table.
        assert built == [(dense, 8, 9)]
        assert "_supports" not in vars(dense)
        built.clear()
        # Every 16-item subset of 20 items once: the walk at sigma 1 counts
        # the 1,351 item-sets of 17 items or more, all non-present, and
        # stops after the 4,845 16-item ones, all present.
        labels = [f"i{n:02d}" for n in range(20)]
        db = database_from_transactions(combinations(labels, 16))
        for emit in ("both", "nonpresent"):
            assert len(rare.mine_rare_masks(db, MiningConfig(1, emit=emit))) == 1351
        assert built == []

    def test_databases_of_2_to_the_15_rows_or_more_take_32_bit_lanes(self):
        # Supports reach 2^15 and more, where a 16-bit lane's top bit sits.
        rng = random.Random(40000)
        labels = [f"i{n}" for n in range(8)]
        rows = [[label for label in labels if rng.random() < 0.9] or labels[:1] for _ in range(40_000)]
        cases = [(database_from_transactions(rows), (1, 2_000, 20_000, 35_000, 40_001))]
        # Every row the full item-set, one row either side of the lane switch.
        for size in (32_767, 32_768):
            cases.append((database_from_transactions([labels] * size), (1, size, size + 1)))
        for db, sigmas in cases:
            assert supports.support_table(db, 1, 0)[0].itemsize == (2 if len(db) < 1 << 15 else 4)
            got, scanned = table_counts(db)
            assert got == scanned
            for sigma in sigmas:
                assert walk_with_table(db, sigma, True) == walk_with_table(db, sigma, False)

    @pytest.mark.parametrize("sigma", [1, 8, 40])
    def test_the_dense_corpus_walks_alike_with_and_without_the_table(self, sigma):
        # 14 items, past the 12 the property test draws.
        db = parse_database(bench_dense_corpus(1))
        assert walk_with_table(db, sigma, True) == walk_with_table(db, sigma, False)

    @pytest.mark.parametrize("size", [400, 1 << 15])
    def test_a_sigma_far_above_every_support_keeps_every_mask(self, size):
        # The table's threshold is min(sigma, |D| + 1), so a sigma past what
        # a lane holds, for 2- and 4-byte lanes alike, still keeps every mask.
        rng = random.Random(size)
        labels = [f"i{n}" for n in range(5)]
        rows = [[label for label in labels if rng.random() < 0.5] or labels[:1] for _ in range(size)]
        db = database_from_transactions(rows)
        for sigma in (10**6, 1 << 40):
            config = MiningConfig(sigma)
            with patch.object(rare, "_table_pays", lambda counted, width: True):
                forced = rare.mine_rare_masks(db, config)
            assert forced == rare.mine_rare_masks(db, config)
            assert len(forced) == (1 << db.width) - 1


def scanned_supports(db):
    """{mask: support} of every present item-set of `db`, by a plain scan.

    The present item-sets are the non-empty subsets of the distinct rows,
    2^|row| per row, so the cost follows the rows, not 2^|I|; each is
    counted by testing it against every row, not by the miners' counter.
    """
    present = set()
    for row in set(db.rows):
        subset = row
        while subset:
            present.add(subset)
            subset = (subset - 1) & row
    return {s: sum(s & row == s for row in db.rows) for s in present}


@st.composite
def wide_cases(draw, low=17, high=20, rows=(0, 30)):
    """(database over `low`-`high` items with `rows[0]`-`rows[1]` rows of at
    most 8 items, sigma in [1, |D|+2])."""
    universe = [f"w{n:02d}" for n in range(draw(st.integers(low, high)))]
    rows = draw(st.lists(
        st.lists(st.sampled_from(universe), min_size=1, max_size=8), min_size=rows[0], max_size=rows[1]
    ))
    db = database_from_transactions(rows, universe=universe, max_items=len(universe))
    return db, draw(st.integers(1, len(db) + 2))


class TestWideReferee:
    """Past `classify_all`'s 16 items, the miners against a scan of the
    present item-sets: what is not present has support 0."""

    # A 20-item example takes about 1.6 s, a 17-item one 0.2 s.
    @settings(deadline=None, max_examples=15)
    @given(wide_cases())
    def test_rare_and_frequent_results_partition_the_lattice(self, case):
        db, sigma = case
        scanned = scanned_supports(db)
        seen = bytearray(1 << db.width)
        both = rare.mine_rare_masks(db, MiningConfig(sigma, emit="both"))
        for mask, support in both:
            seen[mask] += 1
            assert support == scanned.get(mask, 0) < sigma
        present = [pair for pair in both if pair[1]]
        del both
        assert rare.mine_rare_masks(db, MiningConfig(sigma, emit="rare")) == present
        for result in mine_frequent(db, sigma):
            seen[result.itemset.mask] += 1
            assert result.support == scanned[result.itemset.mask] >= sigma
        # Every non-empty mask exactly once.
        assert seen == b"\x00" + b"\x01" * ((1 << db.width) - 1)
        nonpresent = rare.mine_rare_masks(db, MiningConfig(sigma, emit="nonpresent"))
        assert len({mask for mask, _ in nonpresent}) == len(nonpresent) == len(seen) - 1 - len(scanned)
        assert all(support == 0 and mask not in scanned for mask, support in nonpresent)

    # Past 20 items only the walks over present item-sets run: up to 2^8
    # per row, whatever the width. 100 examples take about 1 s.
    @settings(deadline=None, max_examples=100)
    @given(wide_cases(21, 40))
    def test_present_walks_past_20_items_are_the_scan_in_label_order(self, case):
        db, sigma = case
        scanned = scanned_supports(db)

        def naive(pairs):
            labels = {mask: sorted(db.labels[i] for i in range(db.width) if mask >> i & 1) for mask, _ in pairs}
            return sorted(pairs, key=lambda pair: (len(labels[pair[0]]), " ".join(labels[pair[0]])))

        assert rare.mine_rare_masks(db, MiningConfig(sigma, emit="rare")) == naive(
            [(mask, support) for mask, support in scanned.items() if support < sigma])
        assert [(r.itemset.mask, r.support) for r in mine_frequent(db, sigma)] == naive(
            [(mask, support) for mask, support in scanned.items() if support >= sigma])
        assert rare._ordered(iter_supported(db, 1), db) == naive(list(scanned.items()))

    # 65-300 rows, so that a tid-list spans several machine words. 40
    # examples take about 3 s.
    @settings(deadline=None, max_examples=40)
    @given(wide_cases(17, 40, rows=(65, 300)))
    def test_supported_levels_are_the_scan_past_16_items(self, case):
        db, minsupp = case
        levels: dict[int, dict[int, int]] = {}
        for mask, support in sorted(scanned_supports(db).items()):
            if support >= minsupp:
                levels.setdefault(mask.bit_count(), {})[mask] = support
        got = list(iter_supported(db, minsupp))
        assert got == [levels[k] for k in sorted(levels)]
        assert [list(level) for level in got] == [sorted(level) for level in got]

    def test_no_rows_support_nothing(self):
        db = database_from_transactions([], universe=[f"w{n:02d}" for n in range(30)], max_items=30)
        assert mine_frequent(db, 1) == []


def counting(db):
    """The masks `db` is asked to count from now on, in order."""
    counted = []
    count = db.support_of_mask
    db.support_of_mask = lambda mask: counted.append(mask) or count(mask)
    return counted
