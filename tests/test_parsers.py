"""Both parsers and `database_from_transactions` against naive line-at-a-time referees.

The referees read a text one line at a time, by the rules the parsers
document: a line ends at '\\n' only, one leading U+FEFF is dropped, a line
with no token or whose first character is '#' is skipped, and one trailing
'\\r' is dropped from a line's text. They intern one label at a time and OR
one bit at a time, so they share no code with the bulk passes under test.
"""

from __future__ import annotations

import copy
import pickle
from typing import Iterator, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareminer import (
    DEFAULT_ITEM_CAP,
    Event,
    ItemUniverseError,
    ParsedEvents,
    ReplayOrderError,
    database_from_transactions,
    parse_database,
    parse_events,
)


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(0-based line index, line) of every line that is not blank or a comment."""
    for i, line in enumerate(text.removeprefix("\ufeff").split("\n")):
        if line.strip() and not line.startswith("#"):
            yield i, line.removesuffix("\r")


def referee_database(rows, universe: Optional[Sequence[str]] = None,
                     max_items: int = DEFAULT_ITEM_CAP) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """(labels, rows) of the database those label rows make, or raise as the builder does."""
    if max_items < 1:
        raise ValueError(f"max_items must be at least 1, got {max_items}")
    seen = [] if universe is None else list(universe)
    if len(set(seen)) != len(seen):
        raise ValueError("duplicate labels in the item universe")
    rows = [list(row) for row in rows]
    for row in rows:
        for label in row:
            if label not in seen:
                seen.append(label)
    if universe is not None and len(seen) > len(universe):
        raise ValueError(f"item label {seen[len(universe)]!r} not in the given universe")
    if len(seen) > max_items:
        raise ItemUniverseError(len(seen), max_items)
    labels = sorted(seen, reverse=True)
    masks = []
    for row in rows:
        mask = 0
        for label in row:
            mask |= 1 << labels.index(label)
        if mask:
            masks.append(mask)
    return tuple(labels), tuple(masks)


def referee_events(text: str) -> ParsedEvents:
    events, malformed, last = [], [], None
    for index, line in content_lines(text):
        tokens = line.split()
        head = tokens[0]
        try:
            timestamp = int(head) if head.isascii() and head.isdigit() else -1
        except ValueError:
            timestamp = -1
        if timestamp < 0 or len(tokens) < 2:
            malformed.append((index + 1, line))
            continue
        if last is not None and timestamp < last:
            raise ReplayOrderError(
                f"non-monotone timestamps in replay: line {index + 1} has {timestamp} after {last}"
            )
        last = timestamp
        items = []
        for item in tokens[1:]:
            if item not in items:
                items.append(item)
        events.append(Event(timestamp, tuple(items)))
    return ParsedEvents(tuple(events), tuple(malformed))


def outcome(call):
    """What `call()` returns, or the type and message of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:  # ItemUniverseError and ReplayOrderError included
        return type(exc), str(exc)


# Every whitespace character `str.split` splits on and `str.strip` strips,
# a BOM (not whitespace), '#', a carriage return, labels that repeat, and
# timestamps: ASCII, signed, with leading zeros and in Arabic-Indic digits.
PIECES = st.sampled_from([
    " ", "  ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u3000",
    "\ufeff", "#", "# ", "a", "a", "b", "c", "\u00e9", "a#", "0", "5", "10", "007", "+5", "-5", "\u0663",
])
LINES = st.lists(PIECES, max_size=8).map("".join)
TEXTS = st.tuples(st.sampled_from(["", "\ufeff", "\ufeff\ufeff"]),
                  st.lists(LINES, max_size=12).map("\n".join)).map("".join)


@st.composite
def event_texts(draw) -> str:
    """Event lines, mostly well formed with stamps that rarely step back, mixed with awkward lines."""
    stamp, lines = 0, []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 3)):
            stamp = max(0, stamp + draw(st.integers(-1, 8).map(lambda step: step if step < 5 else 0)))
            items = draw(st.lists(st.sampled_from(["a", "b", "c", "\u00e9", "#", "5"]), min_size=0, max_size=4))
            sep = draw(st.sampled_from([" ", "\t", "  ", "\x1f", "\x85", " \x0c"]))
            lead = draw(st.sampled_from(["", "", " ", "\x0b"]))
            end = draw(st.sampled_from(["", "", "\r", " ", "\r\r"]))
            lines.append(lead + sep.join([str(stamp), *items]) + end)
        else:
            lines.append(draw(LINES))
    return draw(st.sampled_from(["", "\ufeff"])) + "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(deadline=None, max_examples=400)
@given(TEXTS, st.integers(0, 6))
def test_parse_database_is_the_line_referee(text, max_items):
    rows = [line.split() for _, line in content_lines(text)]
    db = outcome(lambda: parse_database(text, max_items=max_items))
    pair = db if isinstance(db, tuple) else (db.labels, db.rows)
    assert pair == outcome(lambda: referee_database(rows, max_items=max_items))


@settings(deadline=None, max_examples=400)
@given(
    st.lists(st.lists(st.sampled_from("abcdef")).map(tuple) | st.sets(st.sampled_from("abc")), max_size=8),
    st.none() | st.lists(st.sampled_from("abcdefg"), max_size=6),
    st.integers(0, 7),
)
def test_database_from_transactions_is_the_referee(rows, universe, max_items):
    db = outcome(lambda: database_from_transactions(iter(rows), universe=universe, max_items=max_items))
    pair = db if isinstance(db, tuple) else (db.labels, db.rows)
    assert pair == outcome(lambda: referee_database(rows, universe, max_items))


@settings(deadline=None, max_examples=400)
@given(event_texts() | TEXTS)
def test_parse_events_is_the_line_referee(text):
    assert outcome(lambda: parse_events(text)) == outcome(lambda: referee_events(text))


@settings(deadline=None, max_examples=100)
@given(event_texts())
def test_parsed_events_behave_like_constructed_ones(text):
    parsed = outcome(lambda: parse_events(text))
    if not isinstance(parsed, ParsedEvents):
        return
    for event in parsed.events:
        made = Event(event.timestamp, event.items)
        assert type(event) is Event and type(event.items) is tuple
        assert event == made and hash(event) == hash(made) and repr(event) == repr(made)
        for twin in (pickle.loads(pickle.dumps(event)), copy.copy(event), copy.deepcopy(event)):
            assert type(twin) is Event and twin == event and hash(twin) == hash(event)
        with pytest.raises(AttributeError):
            event.timestamp = 0
