"""The package namespace: `import rareminer` loads no module, and each public
name is loaded from its home module on first use."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import rareminer

PUBLIC_NAMES = [
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

SUBMODULES = ["apriori", "itemsets", "lattice", "monitor", "rare"]


def python_s(code: str) -> str:
    """Run `code` in a fresh `python -S` with the package on its path; its stdout."""
    src = str(Path(rareminer.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_module():
    out = python_s("import rareminer; print(sorted(m for m in sys.modules if m.startswith('rareminer.')))")
    assert out == "[]\n"


def test_all_keeps_its_names_and_order():
    assert rareminer.__all__ == PUBLIC_NAMES


def test_every_public_name_is_its_home_module_object():
    homes = {name: importlib.import_module(f"rareminer.{name}") for name in SUBMODULES}
    for name in PUBLIC_NAMES:
        found = [module for module in homes.values() if name in vars(module)
                 and getattr(module, name) is getattr(rareminer, name)]
        assert found, name
        assert name in vars(rareminer), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from rareminer import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC_NAMES)
    assert all(namespace[name] is getattr(rareminer, name) for name in PUBLIC_NAMES)


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(rareminer))


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(rareminer, "nope")


def test_submodules_resolve_after_a_bare_import():
    out = python_s(
        "import rareminer; print(rareminer.monitor.__name__, "
        f"all(getattr(rareminer, name).__name__ == 'rareminer.' + name for name in {SUBMODULES!r}))"
    )
    assert out == "rareminer.monitor True\n"
