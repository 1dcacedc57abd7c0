"""Command-line front end for the mining toolkit.

Subcommands: `mine` (rare and non-present item-sets), `frequent` (classical
baseline), `classify` (exhaustive lattice dump), `monitor` (event-window
alerting). All output is deterministic: identical invocations produce
identical bytes. Exit codes: 0 success, 1 I/O failure, 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import logging
import os
import stat
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .apriori import mine_frequent
from .itemsets import (
    DEFAULT_ITEM_CAP,
    ItemUniverseError,
    MinedItemSet,
    TransactionDatabase,
    canonical_key,
    format_result_line,
    parse_database,
)
from .lattice import classify_all
from .monitor import (
    EventWindowConfig,
    ReplayOrderError,
    format_alert_line,
    parse_events,
    replay,
)
from .rare import EMIT_BOTH, EMIT_CHOICES, MiningConfig, mine_rare

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2


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

    mine = sub.add_parser("mine", parents=[files], help="mine rare and non-present item-sets")
    mine.add_argument("--max-support", type=int, required=True, metavar="N",
                      help="exclusive upper support bound, in transactions")
    mine.add_argument("--emit", choices=EMIT_CHOICES, default=EMIT_BOTH,
                      help="which classes to report (default: both)")
    mine.add_argument("--no-prune", action="store_true",
                      help="disable candidate pruning for --emit both/nonpresent "
                           "(output is unchanged, only slower)")
    mine.set_defaults(func=_cmd_mine)

    frequent = sub.add_parser("frequent", parents=[files], help="mine frequent item-sets (classical baseline)")
    frequent.add_argument("--min-support", type=int, required=True, metavar="N",
                          help="inclusive minimum support, in transactions")
    frequent.set_defaults(func=_cmd_frequent)

    classify = sub.add_parser("classify", parents=[files], help="exhaustively classify every non-empty item-set",
                              description="Exhaustively classify every non-empty item-set (at most 16 items).")
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
    return Path(path).read_text(encoding="utf-8")


def _write_output(lines: Sequence[str], path: Optional[str]) -> None:
    text = "".join(line + "\n" for line in lines)
    if path is None:
        sys.stdout.write(text)
        return
    # Resolve a symlink first, so the link stays and its target gets the result.
    target = Path(os.path.realpath(path))
    # mkstemp creates its file 0600; give the result the mode the replaced
    # file had, or the one `open(path, "w")` would give a new file.
    try:
        mode = stat.S_IMODE(target.stat().st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
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
    mine: Callable[[TransactionDatabase, int], Iterable[MinedItemSet]],
) -> int:
    """Load `--input`, check `threshold` against it, mine, format and write.

    `mine(db, threshold)` returns results in output order.
    """
    if args.max_items < 1:
        raise _UsageError(f"--max-items must be at least 1, got {args.max_items}")
    db = parse_database(_read_text(args.input), max_items=args.max_items)
    if not 1 <= threshold <= len(db) + 1:
        raise _UsageError(
            f"{flag} must lie in [1, |D|+1] = [1, {len(db) + 1}], got {threshold}"
        )
    lines = [
        format_result_line(r.itemset, r.support, r.classification, db)
        for r in mine(db, threshold)
    ]
    _write_output(lines, args.output)
    return EXIT_OK


def _cmd_mine(args: argparse.Namespace) -> int:
    def mine(db: TransactionDatabase, sigma: int) -> list[MinedItemSet]:
        config = MiningConfig(sigma, pruning_enabled=not args.no_prune, emit=args.emit)
        return mine_rare(db, config)

    return _mine_file(args, "--max-support", args.max_support, mine)


def _cmd_frequent(args: argparse.Namespace) -> int:
    return _mine_file(args, "--min-support", args.min_support, mine_frequent)


def _cmd_classify(args: argparse.Namespace) -> int:
    def classify(db: TransactionDatabase, sigma: int) -> list[MinedItemSet]:
        return sorted(classify_all(db, sigma), key=lambda e: canonical_key(e.itemset, db))

    return _mine_file(args, "--max-support", args.max_support, classify)


def _cmd_monitor(args: argparse.Namespace) -> int:
    for flag, value in (("--max-support", args.max_support),
                        ("--cycles", args.cycles),
                        ("--cycle-duration", args.cycle_duration)):
        if value < 1:
            raise _UsageError(f"{flag} must be at least 1, got {value}")
    parsed = parse_events(_read_text(args.events))
    if parsed.skipped:
        print(
            f"rareminer: warning: skipped {parsed.skipped} malformed event line(s)",
            file=sys.stderr,
        )
    config = EventWindowConfig(args.max_support, args.cycles, args.cycle_duration, args.store)
    reports = replay(
        parsed.events,
        config,
        alert_sink=lambda alert: sys.stdout.write(format_alert_line(alert) + "\n"),
    )
    skipped_cycles = sum(report.skipped_cycles for report in reports)
    if skipped_cycles:
        print(
            f"rareminer: warning: skipped {skipped_cycles} cycle(s) with more than "
            f"{DEFAULT_ITEM_CAP} distinct items",
            file=sys.stderr,
        )
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # The package logs only warnings (a skipped event line or cycle); print
    # them in the front end's own stderr format.
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("rareminer: warning: %(message)s"))
    package_log = logging.getLogger("rareminer")
    package_log.addHandler(handler)
    try:
        return args.func(args)
    except (_UsageError, ItemUniverseError, ReplayOrderError) as exc:
        print(f"rareminer: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"rareminer: error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        package_log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
