"""One table of the support of every mask, for walks that count most of the lattice.

`rare._top_down` imports this module only when it builds the table, so a
run that builds none does not compile it.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from itertools import compress
from typing import Iterator

from .itemsets import TransactionDatabase

_BIT7_CLEAR = bytes([1]) * 128 + bytes(128)


def support_table(db: TransactionDatabase, sigma: int, top: int) -> tuple[array, list[list[int]]]:
    """The support of every mask below 2^|I|, indexed by mask, and the
    top-down walk's candidates of cardinalities 1 to `top`, lowest first.

    The table is built as one int of 2^|I| lanes, 16 bits each, or 32 when
    |D| >= 2^15, so that no support, at most |D|, carries into the next
    lane. Lane m starts as the number of rows equal to m. Pass i of the
    superset-sum (zeta) transform adds lane m + 2^i to lane m for every m
    without item i, so after |I| passes lane m holds the support of m. The
    lanes are read out as little-endian bytes into an `array` of 2 or 4
    bytes per mask.

    A k-mask is a candidate when no (k+1)-superset reaches sigma (the `rare`
    module docstring says why). With 2^(bits-1) - min(sigma, |D| + 1) added
    to every lane, bit 7 of its top byte is set exactly when its support
    reaches sigma; |I| shift, AND and OR passes over those bytes mark each
    mask with a one-item superset that does, and the unmarked masks are
    read out per cardinality, in ascending mask order.
    """
    width = db.width
    size = 1 << width
    lane = 2 if len(db) < 1 << 15 else 4
    bits = lane * 8
    counts = bytearray(size * lane)
    for row, n in Counter(db.rows).items():
        counts[row * lane:(row + 1) * lane] = n.to_bytes(lane, "little")
    table = int.from_bytes(counts, "little")
    del counts
    for shift, without in _lanes_without(width, bits):
        table += (table >> shift) & without
    del without  # as large as the table, and not needed past the transform
    supports = array("H" if lane == 2 else "I", table.to_bytes(size * lane, "little"))
    if sys.byteorder == "big":
        supports.byteswap()
    floor = (1 << (bits - 1)) - min(sigma, len(db) + 1)
    table += int.from_bytes(floor.to_bytes(lane, "little") * size, "little")
    reached = int.from_bytes(table.to_bytes(size * lane, "little")[lane - 1::lane], "little")
    del table
    ruled_out = 0
    for shift, without in _lanes_without(width, 8):
        ruled_out |= (reached >> shift) & without
    levels: list[list[int]] = [[] for _ in range(width + 1)]
    for mask in compress(range(size), ruled_out.to_bytes(size, "little").translate(_BIT7_CLEAR)):
        levels[mask.bit_count()].append(mask)
    return supports, levels[1:top + 1]


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
