"""Command-line front end for the mining toolkit.

Subcommands: `mine` (rare and non-present item-sets), `frequent` (classical
baseline), `classify` (exhaustive lattice dump), `monitor` (event-window
alerting). All output is deterministic: identical invocations produce
identical bytes. Exit codes: 0 success, 1 I/O failure, 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .itemsets import (
    DEFAULT_ITEM_CAP,
    ORACLE_ITEM_CAP,
    ItemUniverseError,
    TransactionDatabase,
    canonical_key,
    format_result_line,
    parse_database,
)
from .rare import EMIT_BOTH, EMIT_CHOICES, MiningConfig, _ordered, mine_rare, mine_rare_masks

if TYPE_CHECKING:
    from .itemsets import MinedItemSet
    from .monitor import AlertSink, Event, EventWindowConfig, ParsedEvents, WindowReport

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2

# The benchmark's tracer replaces names at the module each caller looks them
# up in, so this module keeps binding every name it patches here, the unused
# `canonical_key`, `mine_rare` and `format_result_line` included. The four
# below import their namesake's module on call, so a subcommand loads only
# what it runs; once the tracer reads the program's own counters (ROADMAP
# item 2), they can become plain imports inside their subcommands.


def mine_frequent(db: TransactionDatabase, minsupp: int) -> list[MinedItemSet]:
    from . import apriori
    return apriori.mine_frequent(db, minsupp)


def classify_all(db: TransactionDatabase, sigma: int, *,
                 max_items: int = ORACLE_ITEM_CAP) -> list[MinedItemSet]:
    from . import lattice
    return lattice.classify_all(db, sigma, max_items=max_items)


def parse_events(text: str) -> ParsedEvents:
    from . import monitor
    return monitor.parse_events(text)


def replay(events: Iterable[Event], config: EventWindowConfig,
           alert_sink: Optional[AlertSink] = None) -> list[WindowReport]:
    from . import monitor
    return monitor.replay(events, config, alert_sink)


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rareminer",
        description="Mine rare, non-present and frequent item-sets from "
        "transaction databases, and monitor event streams for recurring "
        "rare patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--input", required=True, help="transaction file (one whitespace-separated transaction per line)")
    files.add_argument("--max-items", type=int, default=DEFAULT_ITEM_CAP, metavar="CAP",
                       help=f"item-universe cap (default {DEFAULT_ITEM_CAP})")
    files.add_argument("--output", help="write results here atomically instead of standard output")

    mine = sub.add_parser("mine", parents=[files], help="mine rare and non-present item-sets",
                          description="Mine rare and non-present item-sets from the full item-set down; "
                          "each level counts the item-sets whose every one-item extension the level above kept.")
    mine.add_argument("--max-support", type=int, required=True, metavar="N",
                      help="exclusive upper support bound, in transactions")
    mine.add_argument("--emit", choices=EMIT_CHOICES, default=EMIT_BOTH,
                      help="which classes to report (default: both)")
    mine.set_defaults(func=_cmd_mine)

    frequent = sub.add_parser("frequent", parents=[files], help="mine frequent item-sets (classical baseline)")
    frequent.add_argument("--min-support", type=int, required=True, metavar="N",
                          help="inclusive minimum support, in transactions")
    frequent.set_defaults(func=_cmd_frequent)

    classify = sub.add_parser("classify", parents=[files], help="exhaustively classify every non-empty item-set",
                              description="Exhaustively classify every non-empty item-set "
                              f"(at most {ORACLE_ITEM_CAP} items).")
    classify.add_argument("--max-support", type=int, required=True, metavar="N")
    classify.set_defaults(func=_cmd_classify)

    monitor = sub.add_parser("monitor", help="replay an event stream and alert on recurring rare patterns",
                             epilog=f"A cycle with more than {DEFAULT_ITEM_CAP} distinct items is "
                             "skipped with a warning, and its window cannot alert.")
    monitor.add_argument("--events", required=True, help="event file: `<timestamp_ms> <item> <item> ...` per line")
    monitor.add_argument("--max-support", type=int, required=True, metavar="N",
                         help="per-cycle exclusive upper support bound")
    monitor.add_argument("--cycles", type=int, required=True, metavar="K",
                         help="mining cycles per window")
    monitor.add_argument("--cycle-duration", type=int, required=True, metavar="MS",
                         help="cycle length in milliseconds")
    monitor.add_argument("--store", required=True, help="JSON-lines file the recurrence records are appended to")
    monitor.set_defaults(func=_cmd_monitor)

    return parser


def _read_text(path: str) -> str:
    # Decode the raw bytes: text mode would turn a lone '\r' into a line
    # break, where both parsers end a line at '\n' only.
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path}: not valid UTF-8 at byte offset {exc.start}") from None


def _write_output(chunks: Iterable[str], path: Optional[str]) -> None:
    """Write each text chunk as it comes, to stdout or by `_write_file`."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        # Resolve a symlink first, so the link stays and its target gets the result.
        _write_file(chunks, os.path.realpath(path))
    except OSError as exc:  # name the path given, not a resolved or temporary one
        raise OSError(exc.errno, exc.strerror, path) from None


def _write_file(chunks: Iterable[str], target: str) -> None:
    """Replace the regular file `target`, or create it, atomically; write
    straight into any other existing `target`, such as a FIFO or a device,
    as a shell redirect would."""
    # mkstemp creates its file 0600; give the result the mode the replaced
    # file had, or the one `open(path, "w")` would give a new, regular file.
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    if not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        return
    import tempfile

    directory, name = os.path.split(target)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _mine_file(
    args: argparse.Namespace,
    flag: str,
    threshold: int,
    mine: Callable[[TransactionDatabase, int], list[tuple[int, int]]],
) -> int:
    """Load `--input`, check `threshold` against it, mine and write.

    `mine(db, threshold)` returns the `(mask, support)` pairs in output
    order, and runs before anything is written.
    """
    if args.max_items < 1:
        raise _UsageError(f"--max-items must be at least 1, got {args.max_items}")
    db = parse_database(_read_text(args.input), max_items=args.max_items)
    if not 1 <= threshold <= len(db) + 1:
        raise _UsageError(
            f"{flag} must lie in [1, |D|+1] = [1, {len(db) + 1}], got {threshold}"
        )
    _write_output(db.format_lines(mine(db, threshold), threshold), args.output)
    return EXIT_OK


def _cmd_mine(args: argparse.Namespace) -> int:
    return _mine_file(args, "--max-support", args.max_support,
                      lambda db, sigma: mine_rare_masks(db, MiningConfig(sigma, emit=args.emit)))


def _cmd_frequent(args: argparse.Namespace) -> int:
    return _mine_file(args, "--min-support", args.min_support,
                      lambda db, minsupp: [(r.itemset.mask, r.support) for r in mine_frequent(db, minsupp)])


def _cmd_classify(args: argparse.Namespace) -> int:
    def classify(db: TransactionDatabase, sigma: int) -> list[tuple[int, int]]:
        # The dump is in ascending mask order, so each cardinality's level is too.
        levels: list[dict[int, int]] = [{} for _ in range(db.width)]
        for entry in classify_all(db, sigma):
            mask = entry.itemset.mask
            levels[mask.bit_count() - 1][mask] = entry.support
        return _ordered(levels, db)

    return _mine_file(args, "--max-support", args.max_support, classify)


def _cmd_monitor(args: argparse.Namespace) -> int:
    from .monitor import EventWindowConfig, ReplayOrderError, format_alert_line

    for flag, value in (("--max-support", args.max_support),
                        ("--cycles", args.cycles),
                        ("--cycle-duration", args.cycle_duration)):
        if value < 1:
            raise _UsageError(f"{flag} must be at least 1, got {value}")
    try:  # both the parse and the replay refuse a timestamp that goes back
        parsed = parse_events(_read_text(args.events))
        for lineno, line in parsed.malformed:
            _warn(f"skipping malformed event line {lineno}: {line!r}")
        if parsed.malformed:
            _warn(f"skipped {parsed.skipped} malformed event line(s)")
        config = EventWindowConfig(args.max_support, args.cycles, args.cycle_duration, args.store)
        reports = replay(parsed.events, config,
                         alert_sink=lambda alert: sys.stdout.write(format_alert_line(alert) + "\n"))
    except ReplayOrderError as exc:
        raise _UsageError(str(exc)) from None
    skipped_cycles = [
        (report.window_start, cycle, n_items)
        for report in reports
        for cycle, n_items in report.skipped_cycles
    ]
    for window_start, cycle, n_items in skipped_cycles:
        _warn(f"skipping cycle {cycle} of the window at {window_start} ms: "
              f"{ItemUniverseError(n_items, DEFAULT_ITEM_CAP)}")
    if skipped_cycles:
        _warn(f"skipped {len(skipped_cycles)} cycle(s) with more than "
              f"{DEFAULT_ITEM_CAP} distinct items")
    return EXIT_OK


def _warn(message: str) -> None:
    print(f"rareminer: warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Stdout carries the bytes `--output` gets, UTF-8 with LF, and stderr is
    # UTF-8, whatever the locale; a stream with no `reconfigure`, such as a
    # StringIO, takes str.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8", newline="\n")
    if hasattr(sys.stderr, "reconfigure"):
        sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, ItemUniverseError) as exc:
        print(f"rareminer: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"rareminer: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
