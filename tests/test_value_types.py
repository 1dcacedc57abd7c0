"""The contract of the ten public value types: immutable records compared,
hashed, printed and pickled by type and field values."""

from __future__ import annotations

import copy
import pickle
from pathlib import Path

import pytest

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
)

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
