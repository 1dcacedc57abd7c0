"""One table of the support of every mask, for walks that count most of the lattice.

`rare._top_down` imports this module only when it builds the table, so a
run that builds none does not compile it.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from typing import Iterator

from .itemsets import TransactionDatabase


def support_table(db: TransactionDatabase) -> array:
    """The support of every mask below 2^|I|, indexed by mask.

    The table is built as one int of 2^|I| lanes, 16 bits each, or 32 when
    |D| >= 2^15, so that no support, at most |D|, carries into the next
    lane. Lane m starts as the number of rows equal to m. Pass i of the
    superset-sum (zeta) transform adds lane m + 2^i to lane m for every m
    without item i, so after |I| passes lane m holds the support of m. The
    lanes are read out as little-endian bytes into an `array` of 2 or 4
    bytes per mask.
    """
    width = db.width
    size = 1 << width
    lane = 2 if len(db) < 1 << 15 else 4
    counts = bytearray(size * lane)
    for row, n in Counter(db.rows).items():
        counts[row * lane:(row + 1) * lane] = n.to_bytes(lane, "little")
    table = int.from_bytes(counts, "little")
    del counts
    for shift, without in _lanes_without(width, lane * 8):
        table += (table >> shift) & without
    supports = array("H" if lane == 2 else "I", table.to_bytes(size * lane, "little"))
    if sys.byteorder == "big":
        supports.byteswap()
    return supports


def _lanes_without(width: int, bits: int) -> Iterator[tuple[int, int]]:
    """Per item i, highest first: `bits` * 2^i, and all ones in the `bits`-bit
    lanes of the masks below 2^width that lack item i.

    Those lanes come in runs of 2^i; shifting item i's int up by half a run
    and XORing it in halves every run, which gives item i - 1's.
    """
    without = (1 << (bits << (width - 1))) - 1
    for i in range(width - 1, -1, -1):
        yield bits << i, without
        if i:
            without ^= without << (bits << (i - 1))
