"""Event-window monitoring: periodic rare-pattern mining with recurrence alerts.

Events are bucketed into fixed-duration mining cycles; each cycle's bucket
is mined independently for rare item-sets over the items seen in that
bucket, and a pattern that shows up rare in every cycle of a window raises
an alert. Only observed-but-rare patterns count toward recurrence:
item-sets that never occurred are ignored, because an absent combination is
not an observed behaviour and would otherwise alert on every window.
Each cycle that holds events is mined rare-only, which walks just the
item-sets present in it. A cycle holding more distinct items than
`DEFAULT_ITEM_CAP` is skipped with a logged warning and counted in its
window's report; the replay goes on.

Replay mode is fully deterministic: the same event file and configuration
produce identical alerts and identical store bytes.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

from .itemsets import ItemUniverseError, content_lines, database_from_transactions
from .rare import EMIT_RARE, MiningConfig, mine_rare

log = logging.getLogger(__name__)

AlertSink = Callable[["Alert"], None]


class ReplayOrderError(ValueError):
    """Replayed event timestamps went backwards."""


@dataclass(frozen=True, slots=True)
class Event:
    """One observed event: a millisecond timestamp and its item labels.

    An event is one transaction for mining purposes; callers that want
    session-level transactions aggregate upstream.
    """

    timestamp: int
    items: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"negative event timestamp {self.timestamp}")
        if not self.items:
            raise ValueError("an event needs at least one item")


@dataclass(frozen=True)
class EventWindowConfig:
    """Window geometry and mining threshold for the monitoring engine.

    A window is exactly `cycles` consecutive buckets of `duration_ms` each;
    `sigma` is the per-cycle exclusive maximum support.
    """

    sigma: int
    cycles: int
    duration_ms: int
    store_path: Union[str, Path]

    def __post_init__(self) -> None:
        if self.sigma < 1:
            raise ValueError(f"sigma must be at least 1, got {self.sigma}")
        if self.cycles < 1:
            raise ValueError(f"cycles must be at least 1, got {self.cycles}")
        if self.duration_ms < 1:
            raise ValueError(f"cycle duration must be at least 1 ms, got {self.duration_ms}")

    @property
    def window_ms(self) -> int:
        return self.cycles * self.duration_ms


@dataclass(frozen=True)
class PatternRecurrence:
    """How often one rare pattern was detected across a window's cycles."""

    labels: tuple[str, ...]
    cycles_detected: int
    last_support: int


@dataclass(frozen=True)
class Alert:
    """A rare pattern detected in every cycle of a window."""

    window_start: int
    labels: tuple[str, ...]
    cycles_detected: int
    supports_per_cycle: tuple[int, ...]


@dataclass(frozen=True)
class WindowReport:
    """One window's outcome; `skipped_cycles` counts cycles over the item cap."""

    window_start: int
    events_processed: int
    recurrences: tuple[PatternRecurrence, ...]
    alerts: tuple[Alert, ...]
    skipped_cycles: int = 0


@dataclass(frozen=True)
class ParsedEvents:
    events: tuple[Event, ...]
    skipped: int


def parse_events(text: str) -> ParsedEvents:
    """Parse replay lines of the form `<timestamp_ms> <item> <item> ...`.

    Lines are read by `content_lines`, so blank and '#'-prefixed lines are
    skipped silently. Malformed lines (a timestamp that is not all ASCII
    decimal digits, no items) are skipped with a counted warning and never
    abort the replay. Duplicate items within a line collapse, keeping
    first-seen order. Timestamps must be non-decreasing; a violation raises
    ReplayOrderError.
    """
    events: list[Event] = []
    skipped = 0
    last_timestamp: Optional[int] = None
    for index, line in content_lines(text):
        lineno = index + 1
        tokens = line.split()
        if not (tokens[0].isascii() and tokens[0].isdigit()) or len(tokens) < 2:
            skipped += 1
            log.warning("skipping malformed event line %d: %r", lineno, line)
            continue
        timestamp = int(tokens[0])
        if last_timestamp is not None and timestamp < last_timestamp:
            raise ReplayOrderError(
                f"non-monotone timestamps in replay: line {lineno} has "
                f"{timestamp} after {last_timestamp}"
            )
        last_timestamp = timestamp
        events.append(Event(timestamp, tuple(dict.fromkeys(tokens[1:]))))
    return ParsedEvents(tuple(events), skipped)


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
    with more distinct items than the default item cap is skipped with a
    warning and counted in the report, and finds nothing, so that window
    cannot alert. After the last cycle, every pattern found rare in at
    least `cycles` cycles (that is, in all of them) is reported once
    through `alert_sink`; then the recurrence table is appended to the
    store and discarded.
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
    skipped_cycles = 0
    for cycle, bucket in sorted(buckets.items()):
        try:
            db = database_from_transactions(event.items for event in bucket)
        except ItemUniverseError as exc:
            skipped_cycles += 1
            log.warning("skipping cycle %d of the window at %d ms: %s", cycle, window_start, exc)
            continue
        for found in mine_rare(db, MiningConfig(config.sigma, emit=EMIT_RARE)):
            labels = db.labels_of(found.itemset)
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
        window_start, len(events), tuple(recurrences), tuple(alerts), skipped_cycles
    )
    if alert_sink is not None:
        for alert in report.alerts:
            alert_sink(alert)
    persist_window(report, config.store_path)
    return report


def persist_window(report: WindowReport, store_path: Union[str, Path]) -> None:
    """Append the window's recurrence records to the store as JSON lines.

    One line per record, canonical order, compact separators, so a replayed
    window always appends identical bytes. The store is opened even when
    there is nothing to write, so an unwritable path always fails the window.
    """
    alerted = {alert.labels for alert in report.alerts}
    lines = [
        json.dumps(
            {
                "window_start": report.window_start,
                "itemset": list(rec.labels),
                "cycles_detected": rec.cycles_detected,
                "alerted": rec.labels in alerted,
            },
            separators=(",", ":"),
            ensure_ascii=False,
        )
        for rec in report.recurrences
    ]
    with open(store_path, "a", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def replay(
    events: Iterable[Event],
    config: EventWindowConfig,
    alert_sink: Optional[AlertSink] = None,
) -> list[WindowReport]:
    """Run consecutive windows over a replayed event stream.

    The first window starts at the first event's timestamp; each later
    window starts at the first event beyond the previous window's end, so
    idle gaps never produce empty windows. Every event is consumed by
    exactly one window.
    """
    events = list(events)
    reports: list[WindowReport] = []
    start_index = 0
    while start_index < len(events):
        window_start = events[start_index].timestamp
        window_end = window_start + config.window_ms
        end_index = start_index
        while end_index < len(events) and events[end_index].timestamp < window_end:
            end_index += 1
        reports.append(
            run_window(
                events[start_index:end_index],
                config,
                alert_sink,
                window_start=window_start,
            )
        )
        start_index = end_index
    return reports


def format_alert_line(alert: Alert) -> str:
    """The standard-output alert format."""
    labels = " ".join(alert.labels)
    return f"ALERT window={alert.window_start} pattern={labels} cycles={alert.cycles_detected}"
