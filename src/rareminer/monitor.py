"""Event-window monitoring: periodic rare-pattern mining with recurrence alerts.

Events are bucketed into fixed-duration mining cycles; each cycle's bucket
is mined independently for rare item-sets over the items seen in that
bucket, and a pattern that shows up rare in every cycle of a window raises
an alert. Only observed-but-rare patterns count toward recurrence:
item-sets that never occurred are ignored, because an absent combination is
not an observed behaviour and would otherwise alert on every window.
Each cycle that holds events is mined rare-only, which walks just the
item-sets present in it. A cycle holding more distinct items than
`DEFAULT_ITEM_CAP` is skipped and recorded in its window's report
(`WindowReport.skipped_cycles`); the replay goes on. Malformed event lines
are likewise returned (`ParsedEvents.malformed`), not printed: the package
writes nothing to stderr, and a front end decides how to report skips.

Replay mode is fully deterministic: the same event file and configuration
produce identical alerts and identical store bytes.
"""

from __future__ import annotations

import os
from itertools import chain, count, repeat
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence, Union

from .itemsets import ItemUniverseError, _Frozen, _text_lines, database_from_transactions
from .rare import EMIT_RARE, MiningConfig, mine_rare

AlertSink = Callable[["Alert"], None]


class ReplayOrderError(ValueError):
    """Replayed event timestamps went backwards."""


class Event(_Frozen):
    """One observed event: a millisecond timestamp and its item labels.

    An event is one transaction for mining purposes; callers that want
    session-level transactions aggregate upstream.
    """

    __slots__ = __match_args__ = ("timestamp", "items")

    def __init__(self, timestamp: int, items: tuple[str, ...]):
        if timestamp < 0:
            raise ValueError(f"negative event timestamp {timestamp}")
        if not items:
            raise ValueError("an event needs at least one item")
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "items", items)


# The slots' member descriptors, which `parse_events` writes its events through.
_set_timestamp = Event.timestamp.__set__
_set_items = Event.items.__set__


class EventWindowConfig(_Frozen):
    """Window geometry and mining threshold for the monitoring engine.

    A window is exactly `cycles` consecutive buckets of `duration_ms` each;
    `sigma` is the per-cycle exclusive maximum support.
    """

    __slots__ = __match_args__ = ("sigma", "cycles", "duration_ms", "store_path")

    def __init__(self, sigma: int, cycles: int, duration_ms: int, store_path: Union[str, os.PathLike]):
        if sigma < 1:
            raise ValueError(f"sigma must be at least 1, got {sigma}")
        if cycles < 1:
            raise ValueError(f"cycles must be at least 1, got {cycles}")
        if duration_ms < 1:
            raise ValueError(f"cycle duration must be at least 1 ms, got {duration_ms}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "duration_ms", duration_ms)
        object.__setattr__(self, "store_path", store_path)

    @property
    def window_ms(self) -> int:
        return self.cycles * self.duration_ms


class PatternRecurrence(_Frozen):
    """How often one rare pattern was detected across a window's cycles."""

    __slots__ = __match_args__ = ("labels", "cycles_detected", "last_support")

    def __init__(self, labels: tuple[str, ...], cycles_detected: int, last_support: int):
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "cycles_detected", cycles_detected)
        object.__setattr__(self, "last_support", last_support)


class Alert(_Frozen):
    """A rare pattern detected in every cycle of a window."""

    __slots__ = __match_args__ = ("window_start", "labels", "cycles_detected", "supports_per_cycle")

    def __init__(
        self,
        window_start: int,
        labels: tuple[str, ...],
        cycles_detected: int,
        supports_per_cycle: tuple[int, ...],
    ):
        object.__setattr__(self, "window_start", window_start)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "cycles_detected", cycles_detected)
        object.__setattr__(self, "supports_per_cycle", supports_per_cycle)


class WindowReport(_Frozen):
    """One window's outcome.

    `skipped_cycles` holds `(cycle, distinct items)`, in cycle order, for
    each cycle over the item cap; such a cycle is not mined.
    """

    __slots__ = __match_args__ = (
        "window_start", "events_processed", "recurrences", "alerts", "skipped_cycles"
    )

    def __init__(
        self,
        window_start: int,
        events_processed: int,
        recurrences: tuple[PatternRecurrence, ...],
        alerts: tuple[Alert, ...],
        skipped_cycles: tuple[tuple[int, int], ...] = (),
    ):
        object.__setattr__(self, "window_start", window_start)
        object.__setattr__(self, "events_processed", events_processed)
        object.__setattr__(self, "recurrences", recurrences)
        object.__setattr__(self, "alerts", alerts)
        object.__setattr__(self, "skipped_cycles", skipped_cycles)


class ParsedEvents(_Frozen):
    """Parsed events, and `(line number, line)` for each malformed line."""

    __slots__ = __match_args__ = ("events", "malformed")

    def __init__(self, events: tuple[Event, ...], malformed: tuple[tuple[int, str], ...]):
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "malformed", malformed)

    @property
    def skipped(self) -> int:
        return len(self.malformed)


def parse_events(text: str) -> ParsedEvents:
    """Parse replay lines of the form `<timestamp_ms> <item> <item> ...`.

    Lines are read by `_text_lines`, so blank and '#'-prefixed lines are
    skipped silently. Malformed lines (a timestamp that is not all ASCII
    decimal digits or has more digits than `int()` accepts, no items) are
    skipped, returned in `malformed` with their 1-based line numbers, and
    never abort the replay. Duplicate items within a line collapse, keeping
    first-seen order. Timestamps must be non-decreasing; a violation raises
    ReplayOrderError.
    """
    lines = _text_lines(text)
    malformed: list[tuple[int, str]] = []
    timestamps: list[int] = []
    item_lists: list[list[str]] = []
    last_timestamp = 0
    for lineno, line, tokens in zip(count(1), lines, map(str.split, lines)):
        if not tokens:
            continue
        try:
            # int() also refuses more digits than the interpreter's int-string limit.
            timestamp = int(tokens[0]) if tokens[0].isascii() and tokens[0].isdigit() else -1
        except ValueError:
            timestamp = -1
        if timestamp < 0 or len(tokens) < 2:
            malformed.append((lineno, line.removesuffix("\r")))
            continue
        if timestamp < last_timestamp:
            raise ReplayOrderError(
                f"non-monotone timestamps in replay: line {lineno} has "
                f"{timestamp} after {last_timestamp}"
            )
        last_timestamp = timestamp
        del tokens[0]
        timestamps.append(timestamp)
        item_lists.append(tokens)
    del lines  # lowers the peak memory of the passes below
    # Each kept line passed `Event.__init__`'s checks, so the events are
    # written through their slots in C-level passes (`any` drains the `None`s).
    events = list(map(object.__new__, repeat(Event, len(timestamps))))
    any(map(_set_timestamp, events, timestamps))
    any(map(_set_items, events, map(tuple, map(dict.fromkeys, item_lists))))
    return ParsedEvents(tuple(events), tuple(malformed))


def run_window(
    events: Sequence[Event],
    config: EventWindowConfig,
    alert_sink: Optional[AlertSink] = None,
    *,
    window_start: Optional[int] = None,
) -> WindowReport:
    """Mine one window of `config.cycles` consecutive cycle buckets and alert.

    Events are bucketed by timestamp arithmetic relative to `window_start`
    (the first event's timestamp when omitted); every event belongs to
    exactly one cycle. Each cycle that holds events is mined independently
    at the window's threshold (an empty one would find nothing); a cycle
    with more distinct items than the default item cap is skipped and
    recorded in the report's `skipped_cycles`, and finds nothing, so that
    window cannot alert. After the last cycle, the recurrence table is
    appended to the store; only then is every pattern found rare in at
    least `cycles` cycles (that is, in all of them) reported once through
    `alert_sink`, so no alert is reported for a window whose records were
    not stored. A label the store cannot encode as UTF-8 (one holding a
    lone surrogate, which no UTF-8 event file gives) raises ValueError
    before its cycle is mined, so the window stores and reports nothing.
    """
    events = list(events)
    if window_start is None:
        window_start = events[0].timestamp if events else 0
    window_end = window_start + config.window_ms
    buckets: dict[int, list[Event]] = {}
    for event in events:
        if not window_start <= event.timestamp < window_end:
            raise ValueError(
                f"event at {event.timestamp} ms outside window "
                f"[{window_start}, {window_end})"
            )
        cycle = (event.timestamp - window_start) // config.duration_ms
        buckets.setdefault(cycle, []).append(event)

    supports_by_pattern: dict[tuple[str, ...], dict[int, int]] = {}
    skipped_cycles: list[tuple[int, int]] = []
    for cycle, bucket in sorted(buckets.items()):
        try:
            db = database_from_transactions(event.items for event in bucket)
        except ItemUniverseError as exc:
            skipped_cycles.append((cycle, exc.n_items))
            continue
        _require_utf8(db.labels)
        for found in mine_rare(db, MiningConfig(config.sigma, emit=EMIT_RARE)):
            labels = db.labels_of(found.itemset.mask)
            supports_by_pattern.setdefault(labels, {})[cycle] = found.support

    recurrences: list[PatternRecurrence] = []
    alerts: list[Alert] = []
    for labels in sorted(supports_by_pattern, key=lambda ls: (len(ls), " ".join(ls))):
        by_cycle = supports_by_pattern[labels]
        detected = len(by_cycle)
        recurrences.append(PatternRecurrence(labels, detected, by_cycle[max(by_cycle)]))
        if detected >= config.cycles:
            alerts.append(
                Alert(
                    window_start,
                    labels,
                    detected,
                    tuple(by_cycle[c] for c in range(config.cycles)),
                )
            )

    report = WindowReport(
        window_start, len(events), tuple(recurrences), tuple(alerts), tuple(skipped_cycles)
    )
    persist_window(report, config.store_path)
    if alert_sink is not None:
        for alert in report.alerts:
            alert_sink(alert)
    return report


def _require_utf8(labels: Sequence[str]) -> None:
    """Raise ValueError naming the first label that UTF-8 cannot encode."""
    try:
        "".join(labels).encode("utf-8")
    except UnicodeEncodeError as exc:
        # Encoding stops at the first bad character, so no earlier label holds it.
        bad = exc.object[exc.start]
        label = next(label for label in labels if bad in label)
        raise ValueError(f"item label {label!r} cannot be encoded as UTF-8") from None


def persist_window(report: WindowReport, store_path: Union[str, os.PathLike]) -> None:
    """Append the window's recurrence records to the store as JSON lines.

    One line per record, canonical order, so a replayed window always
    appends identical bytes. Each line is written from its fields, with the
    labels escaped by the escaper `json` itself uses: the bytes of compact,
    non-ASCII JSON of {window_start, itemset, cycles_detected, alerted}.
    The store is opened even when there is nothing to write, so an
    unwritable path always fails the window. A write that fails partway is
    cut back off, so no record is left torn. The store must be a regular
    file: one that cannot seek, such as a FIFO, fails before anything is
    written. Every `OSError` names `store_path`.
    """
    import json
    from json.encoder import encode_basestring as quote

    alerted = {alert.labels for alert in report.alerts}
    head = '{"window_start":%s,"itemset":[' % json.dumps(report.window_start)
    text = "".join(
        f'{head}{",".join(map(quote, rec.labels))}],"cycles_detected":{rec.cycles_detected},'
        f'"alerted":{"true" if rec.labels in alerted else "false"}}}\n'
        for rec in report.recurrences
    )
    try:
        # Unbuffered: a buffered writer would flush what it holds at close, after the cut.
        with open(store_path, "ab", buffering=0) as fh:
            start = fh.tell()
            try:
                view = memoryview(text.encode("utf-8"))
                while view:
                    view = view[fh.write(view):]
            except BaseException:
                fh.truncate(start)
                raise
    except OSError as exc:  # `tell` on a FIFO, or a failed write, names no file
        raise OSError(exc.errno, exc.strerror, os.fspath(store_path)) from None


def replay(
    events: Iterable[Event],
    config: EventWindowConfig,
    alert_sink: Optional[AlertSink] = None,
) -> list[WindowReport]:
    """Run consecutive windows over a replayed event stream.

    The first window starts at the first event's timestamp; each later
    window starts at the first event at or past the previous window's end,
    so idle gaps never produce empty windows. Events may be out of order
    inside a window, but one before its window's first event raises
    ReplayOrderError before any window runs, and so does a label that UTF-8
    cannot encode, with ValueError: either way nothing is stored or alerted.
    """
    windows: list[tuple[int, list[Event]]] = []
    for event in events:
        timestamp = event.timestamp
        if not windows or timestamp >= window_end:
            window_start, window_end, bucket = timestamp, timestamp + config.window_ms, []
            windows.append((window_start, bucket))
        elif timestamp < window_start:
            raise ReplayOrderError(f"event at {timestamp} ms precedes its window's start at {window_start} ms")
        bucket.append(event)
    for _, bucket in windows:
        _require_utf8(list(chain.from_iterable(map(attrgetter("items"), bucket))))
    return [run_window(bucket, config, alert_sink, window_start=start) for start, bucket in windows]


def format_alert_line(alert: Alert) -> str:
    """The standard-output alert format."""
    labels = " ".join(alert.labels)
    return f"ALERT window={alert.window_start} pattern={labels} cycles={alert.cycles_detected}"
