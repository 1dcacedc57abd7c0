"""The contract of the ten public value types: immutable records compared,
hashed, printed and pickled by type and field values, whether a constructor
or a miner built them."""

from __future__ import annotations

import copy
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_LABELS
from rareminer import (
    Alert,
    Classification,
    Event,
    EventWindowConfig,
    ItemSet,
    LevelState,
    MinedItemSet,
    MiningConfig,
    ParsedEvents,
    PatternRecurrence,
    WindowReport,
    classify_all,
    database_from_transactions,
    iter_levels,
    mine_frequent,
    mine_rare,
)
from rareminer.itemsets import canonical_key

RARE_AB = MinedItemSet(ItemSet(3, 4), 1, Classification.RARE)
RECURRENCE = PatternRecurrence(("a", "b"), 3, 1)
ALERT = Alert(0, ("a", "b"), 3, (1, 1, 1))

# (type, fields by keyword in declaration order, exact repr)
CASES = [
    (ItemSet, {"mask": 5, "width": 3}, "ItemSet(mask=5, width=3)"),
    (
        MinedItemSet,
        {"itemset": ItemSet(3, 4), "support": 1, "classification": Classification.RARE},
        "MinedItemSet(itemset=ItemSet(mask=3, width=4), support=1, "
        "classification=<Classification.RARE: 'RARE'>)",
    ),
    (
        MiningConfig,
        {"sigma": 3, "pruning_enabled": False, "emit": "rare"},
        "MiningConfig(sigma=3, pruning_enabled=False, emit='rare')",
    ),
    (
        LevelState,
        {"k": 2, "interesting": (RARE_AB,), "frequent_record": (ItemSet(5, 4),)},
        "LevelState(k=2, interesting=(MinedItemSet(itemset=ItemSet(mask=3, width=4), "
        "support=1, classification=<Classification.RARE: 'RARE'>),), "
        "frequent_record=(ItemSet(mask=5, width=4),))",
    ),
    (Event, {"timestamp": 1000, "items": ("p", "q")}, "Event(timestamp=1000, items=('p', 'q'))"),
    (
        EventWindowConfig,
        {"sigma": 2, "cycles": 3, "duration_ms": 1000, "store_path": Path("store.jsonl")},
        "EventWindowConfig(sigma=2, cycles=3, duration_ms=1000, "
        f"store_path={Path('store.jsonl')!r})",
    ),
    (
        PatternRecurrence,
        {"labels": ("a", "b"), "cycles_detected": 3, "last_support": 1},
        "PatternRecurrence(labels=('a', 'b'), cycles_detected=3, last_support=1)",
    ),
    (
        Alert,
        {"window_start": 0, "labels": ("a", "b"), "cycles_detected": 3,
         "supports_per_cycle": (1, 1, 1)},
        "Alert(window_start=0, labels=('a', 'b'), cycles_detected=3, supports_per_cycle=(1, 1, 1))",
    ),
    (
        WindowReport,
        {"window_start": 0, "events_processed": 4, "recurrences": (RECURRENCE,),
         "alerts": (ALERT,), "skipped_cycles": ((1, 25),)},
        "WindowReport(window_start=0, events_processed=4, recurrences=(PatternRecurrence("
        "labels=('a', 'b'), cycles_detected=3, last_support=1),), alerts=(Alert("
        "window_start=0, labels=('a', 'b'), cycles_detected=3, supports_per_cycle=(1, 1, 1)),), "
        "skipped_cycles=((1, 25),))",
    ),
    (
        ParsedEvents,
        {"events": (Event(0, ("p",)),), "malformed": ((2, "junk café"),)},
        "ParsedEvents(events=(Event(timestamp=0, items=('p',)),), malformed=((2, 'junk café'),))",
    ),
]

# A second value for every field, to show that each field takes part in equality.
OTHER_VALUES = {
    "ItemSet": {"mask": 4, "width": 4},
    "MinedItemSet": {"itemset": ItemSet(5, 4), "support": 2,
                     "classification": Classification.NONPRESENT},
    "MiningConfig": {"sigma": 4, "pruning_enabled": True, "emit": "both"},
    "LevelState": {"k": 3, "interesting": (), "frequent_record": ()},
    "Event": {"timestamp": 1001, "items": ("p",)},
    "EventWindowConfig": {"sigma": 3, "cycles": 4, "duration_ms": 999,
                          "store_path": "store.jsonl"},
    "PatternRecurrence": {"labels": ("a",), "cycles_detected": 2, "last_support": 2},
    "Alert": {"window_start": 1, "labels": ("a",), "cycles_detected": 2,
              "supports_per_cycle": (1, 1)},
    "WindowReport": {"window_start": 1, "events_processed": 5, "recurrences": (),
                     "alerts": (), "skipped_cycles": ()},
    "ParsedEvents": {"events": (), "malformed": ()},
}


@pytest.mark.parametrize("cls, fields, text", CASES, ids=[case[0].__name__ for case in CASES])
class TestValueType:
    def test_equal_by_type_and_fields(self, cls, fields, text):
        value = cls(**fields)
        assert value == cls(**fields)
        assert not value != cls(**fields)
        assert value == cls(*fields.values())
        # The same fields under another type never compare equal.
        subclass = type("Sub", (cls,), {"__slots__": ()})
        assert value != subclass(**fields)
        assert value != tuple(fields.values())
        assert value.__eq__(tuple(fields.values())) is NotImplemented

    def test_each_field_takes_part_in_equality(self, cls, fields, text):
        value = cls(**fields)
        for name in fields:
            other = dict(fields)
            other[name] = OTHER_VALUES[cls.__name__][name]
            assert value != cls(**other), name

    def test_hash_is_the_hash_of_the_field_tuple(self, cls, fields, text):
        value = cls(**fields)
        assert hash(value) == hash(tuple(fields.values()))
        assert len({value, cls(**fields)}) == 1

    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, text):
        value = cls(**fields)
        for name, field_value in fields.items():
            with pytest.raises(AttributeError):
                setattr(value, name, field_value)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) == field_value

    def test_no_other_attribute_can_be_set(self, cls, fields, text):
        # A frozen slotted dataclass raised TypeError here on CPython 3.11.
        value = cls(**fields)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        with pytest.raises(AttributeError):
            del value.not_a_field

    def test_no_instance_dict(self, cls, fields, text):
        # Seven of the ten were dataclasses without slots, a dict per value.
        assert not hasattr(cls(**fields), "__dict__")

    def test_positional_patterns_bind_the_fields_in_order(self, cls, fields, text):
        assert cls.__match_args__ == tuple(fields)

    def test_construction_rejects_missing_and_unknown_arguments(self, cls, fields, text):
        required = dict(fields)
        required.pop(next(iter(fields)))
        with pytest.raises(TypeError):
            cls(**required)
        with pytest.raises(TypeError):
            cls(**fields, not_a_field=1)
        with pytest.raises(TypeError):
            cls(*fields.values(), 1)

    def test_copy_and_pickle_round_trip(self, cls, fields, text):
        value = cls(**fields)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls
            assert twin == value
            assert hash(twin) == hash(value)


def test_defaults():
    assert MiningConfig(3) == MiningConfig(sigma=3, pruning_enabled=True, emit="both")
    report = WindowReport(window_start=0, events_processed=0, recurrences=(), alerts=())
    assert report.skipped_cycles == ()
    assert report == WindowReport(0, 0, (), (), ())


def test_fields_keep_the_values_given():
    # Equality compares what was stored, so a type that stored a converted
    # or defaulted value would still pass the tests above.
    for cls, fields, _ in CASES:
        value = cls(**fields)
        assert all(getattr(value, name) is field_value for name, field_value in fields.items())


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: ItemSet(0, -1), "negative item-set width -1"),
        (lambda: ItemSet(8, 3), "mask 0x8 out of range for width 3"),
        (lambda: ItemSet(-1, 3), "mask -0x1 out of range for width 3"),
        (lambda: Event(-1, ("a",)), "negative event timestamp -1"),
        (lambda: Event(0, ()), "an event needs at least one item"),
        (lambda: MiningConfig(0), "sigma must be at least 1, got 0"),
        (lambda: MiningConfig(2, emit="all"),
         "emit must be one of ('rare', 'nonpresent', 'both'), got 'all'"),
        (lambda: EventWindowConfig(0, 1, 1, "s"), "sigma must be at least 1, got 0"),
        (lambda: EventWindowConfig(1, 0, 1, "s"), "cycles must be at least 1, got 0"),
        (lambda: EventWindowConfig(1, 1, 0, "s"), "cycle duration must be at least 1 ms, got 0"),
    ],
)
def test_validation_errors(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == message


class Three:
    """Not an int, but one by `operator.index`."""

    def __index__(self) -> int:
        return 3


@pytest.mark.parametrize(
    "make",
    [
        lambda: MiningConfig(8.0),
        lambda: MiningConfig(2.5, emit="rare"),
        lambda: MiningConfig("3"),
        lambda: EventWindowConfig(2.0, 1, 1, "s"),
        lambda: EventWindowConfig(2, 3.0, 1, "s"),
        lambda: EventWindowConfig(2, 3, 1000.0, "s"),
    ],
)
def test_thresholds_must_be_whole_numbers(make):
    # A float sigma once reached the walks: on the benchmark's dense corpus,
    # 8.0 crashed in the support table and emit=rare returned results.
    with pytest.raises(TypeError):
        make()


def test_thresholds_are_stored_as_ints():
    assert MiningConfig(Three()) == MiningConfig(3)
    assert type(MiningConfig(Three()).sigma) is int
    config = EventWindowConfig(Three(), Three(), Three(), "s")
    assert config == EventWindowConfig(3, 3, 3, "s")
    assert {type(config.sigma), type(config.cycles), type(config.duration_ms)} == {int}


def assert_like_constructed(value, twin) -> None:
    """`value` behaves as `twin`, built by its type's constructor, does."""
    assert type(value) is type(twin)
    assert value == twin and hash(value) == hash(twin) and repr(value) == repr(twin)
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is type(twin) and copied == twin and hash(copied) == hash(twin)
    for name in type(twin).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(twin, name))
        with pytest.raises(AttributeError):
            delattr(value, name)


@st.composite
def mined_databases(draw):
    """(database over at most 10 items, threshold in [1, |D|+2])."""
    universe = CORPUS_LABELS[: draw(st.integers(1, 10))]
    rows = draw(st.lists(st.lists(st.sampled_from(universe), min_size=1), max_size=20))
    db = database_from_transactions(rows, universe=universe)
    return db, draw(st.integers(1, len(db) + 2))


@settings(deadline=None, max_examples=150)
@given(mined_databases())
def test_mined_results_behave_like_constructed_ones(case):
    # The miners build their results in bulk, with no constructor call.
    db, threshold = case
    rare, nonpresent, frequent = Classification.RARE, Classification.NONPRESENT, Classification.FREQUENT
    referee = sorted(classify_all(db, threshold), key=lambda e: canonical_key(e.itemset.mask, db))
    runs = [
        (mine_rare(db, MiningConfig(threshold, emit=emit)), classes)
        for emit, classes in (("both", {rare, nonpresent}), ("rare", {rare}), ("nonpresent", {nonpresent}))
    ]
    runs.append((mine_frequent(db, threshold), {frequent}))
    for results, classes in runs:
        wanted = [e for e in referee if e.classification in classes]
        assert len(results) == len(wanted)
        for result, entry in zip(results, wanted):
            twin = MinedItemSet(ItemSet(entry.itemset.mask, db.width), entry.support, entry.classification)
            assert_like_constructed(result, twin)
            assert_like_constructed(result.itemset, twin.itemset)
            match result:
                case MinedItemSet(ItemSet(mask, width), support, classification):
                    assert (mask, width, support, classification) == (
                        twin.itemset.mask, db.width, twin.support, twin.classification)
                case _:
                    pytest.fail(f"{result!r} does not match its type's pattern")
    for level in iter_levels(db, MiningConfig(threshold)):
        for itemset in level.frequent_record:
            assert_like_constructed(itemset, ItemSet(itemset.mask, db.width))
