"""Rare and non-present item-set mining over transaction databases.

The package mines the item-sets a frequency-oriented miner throws away:
those occurring in fewer than a threshold number of transactions (rare) and
those occurring in none at all (non-present). A classical frequent-item-set
miner, an exhaustive lattice classifier, and an event-window monitor that
alerts on recurring rare patterns round out the toolkit.
"""

from importlib import import_module as _import_module

# Each public name's home module, in `__all__` order. A name's module is
# imported on its first lookup, which binds the name here, so
# `import rareminer` loads no module and each CLI subcommand loads only what
# it runs.
_HOME = {
    "DEFAULT_ITEM_CAP": "itemsets",
    "EMIT_BOTH": "rare",
    "EMIT_NONPRESENT": "rare",
    "EMIT_RARE": "rare",
    "Alert": "monitor",
    "Classification": "itemsets",
    "Event": "monitor",
    "EventWindowConfig": "monitor",
    "ItemSet": "itemsets",
    "ItemUniverseError": "itemsets",
    "LevelState": "rare",
    "MinedItemSet": "itemsets",
    "MiningConfig": "rare",
    "ParsedEvents": "monitor",
    "PatternRecurrence": "monitor",
    "ReplayOrderError": "monitor",
    "TransactionDatabase": "itemsets",
    "WindowReport": "monitor",
    "classify_all": "lattice",
    "coverage": "lattice",
    "database_from_transactions": "itemsets",
    "evaluate_candidates": "rare",
    "format_alert_line": "monitor",
    "format_result_line": "itemsets",
    "generate_candidates": "rare",
    "iter_levels": "rare",
    "iter_supported": "apriori",
    "join_candidates": "apriori",
    "mine_frequent": "apriori",
    "mine_rare": "rare",
    "parse_database": "itemsets",
    "parse_events": "monitor",
    "prune_candidates": "rare",
    "replay": "monitor",
    "run_window": "monitor",
}
__all__ = list(_HOME)
_SUBMODULES = frozenset(_HOME.values())


def __getattr__(name: str):
    if name in _SUBMODULES:  # as `rareminer.monitor` after `import rareminer`
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
