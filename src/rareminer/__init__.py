"""Rare and non-present item-set mining over transaction databases.

The package mines the item-sets a frequency-oriented miner throws away:
those occurring in fewer than a threshold number of transactions (rare) and
those occurring in none at all (non-present). A classical frequent-item-set
miner, an exhaustive lattice classifier, and an event-window monitor that
alerts on recurring rare patterns round out the toolkit.
"""

from .apriori import iter_supported, join_candidates, mine_frequent
from .itemsets import (
    DEFAULT_ITEM_CAP,
    Classification,
    ItemSet,
    ItemUniverseError,
    MinedItemSet,
    TransactionDatabase,
    database_from_transactions,
    format_result_line,
    parse_database,
)
from .lattice import classify_all, coverage
from .monitor import (
    Alert,
    Event,
    EventWindowConfig,
    ParsedEvents,
    PatternRecurrence,
    ReplayOrderError,
    WindowReport,
    format_alert_line,
    parse_events,
    replay,
    run_window,
)
from .rare import (
    EMIT_BOTH,
    EMIT_NONPRESENT,
    EMIT_RARE,
    LevelState,
    MiningConfig,
    evaluate_candidates,
    generate_candidates,
    iter_levels,
    mine_rare,
    prune_candidates,
)

__all__ = [
    "DEFAULT_ITEM_CAP",
    "EMIT_BOTH",
    "EMIT_NONPRESENT",
    "EMIT_RARE",
    "Alert",
    "Classification",
    "Event",
    "EventWindowConfig",
    "ItemSet",
    "ItemUniverseError",
    "LevelState",
    "MinedItemSet",
    "MiningConfig",
    "ParsedEvents",
    "PatternRecurrence",
    "ReplayOrderError",
    "TransactionDatabase",
    "WindowReport",
    "classify_all",
    "coverage",
    "database_from_transactions",
    "evaluate_candidates",
    "format_alert_line",
    "format_result_line",
    "generate_candidates",
    "iter_levels",
    "iter_supported",
    "join_candidates",
    "mine_frequent",
    "mine_rare",
    "parse_database",
    "parse_events",
    "prune_candidates",
    "replay",
    "run_window",
]
