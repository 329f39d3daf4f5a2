"""Extension: searching the nibble-allocation design space.

The paper presents one first-nibble allocation (Figure 10) as "the best
encoding choice we have discovered" and notes that "other programs may
benefit from different encodings".  This experiment makes that search
concrete: with the dictionary fixed (from a standard nibble run), it
re-costs the stream under **every** feasible split of the 15 available
first-nibble values among 1/2/3/4-nibble codeword bands and reports the
best allocation per benchmark.

Fixing the dictionary makes each allocation a cheap arithmetic
re-costing (the greedy selection is not repeated), so the reported
gains are a slight *underestimate* of a full per-allocation rerun.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress as compress_items, product

from repro.core import NibbleEncoding, compress
from repro.experiments.common import pct, render_table, suite_programs

TITLE = "Extension: nibble first-nibble allocation search (fixed dictionary)"

FIGURE10 = (8, 4, 2, 1)  # one/two/three/four-nibble first-value counts


def _all_allocations():
    """Every (n1, n2, n3, n4) with n1+n2+n3+n4 = 15."""
    for n1, n2, n3 in product(range(16), repeat=3):
        n4 = 15 - n1 - n2 - n3
        if n4 >= 0:
            yield (n1, n2, n3, n4)


def _capacity(allocation) -> int:
    n1, n2, n3, n4 = allocation
    return n1 + 16 * n2 + 256 * n3 + 4096 * n4


def _band_bits(allocation):
    """rank -> bits lookup data: list of (band_size, bits)."""
    n1, n2, n3, n4 = allocation
    return [
        (n1, 4), (16 * n2, 8), (256 * n3, 12), (4096 * n4, 16),
    ]


def _stream_bits(allocation, rank_uses, rank_lengths, escaped_instructions):
    """Total bits for the fixed token stream under ``allocation``.

    Entries whose rank exceeds the allocation's capacity revert to
    escaped instructions (their dictionary storage is refunded).
    """
    bands = _band_bits(allocation)
    bits = 36 * escaped_instructions
    base = 0
    band_index = 0
    remaining_in_band = bands[0][0]
    for rank, uses in enumerate(rank_uses):
        while band_index < len(bands) and remaining_in_band == 0:
            band_index += 1
            remaining_in_band = bands[band_index][0] if band_index < len(bands) else 0
        if band_index >= len(bands):
            # Out of codeword space: occurrences revert to escapes.
            bits += uses * 36 * rank_lengths[rank]
            continue
        bits += uses * bands[band_index][1]
        bits += 32 * rank_lengths[rank]  # dictionary storage
        remaining_in_band -= 1
    return bits


@dataclass(frozen=True)
class Row:
    name: str
    figure10_ratio: float
    best_ratio: float
    best_allocation: tuple[int, int, int, int]
    allocations_tried: int

    @property
    def improvement_points(self) -> float:
        return 100.0 * (self.figure10_ratio - self.best_ratio)


def run(scale: float | None = None) -> list[Row]:
    rows = []
    for name, program in suite_programs(scale).items():
        compressed = compress(program, NibbleEncoding())
        # Item statistics with ranks in dictionary order.
        columns = compressed.columns
        rank_uses = [0] * len(compressed.dictionary)
        for rank in compress_items(columns.values, columns.kinds):
            rank_uses[rank] += 1
        escaped = len(columns) - sum(rank_uses)
        rank_lengths = [entry.length for entry in compressed.dictionary.entries]
        original_bits = 8.0 * program.text_size

        best_ratio = None
        best_allocation = FIGURE10
        tried = 0
        for allocation in _all_allocations():
            tried += 1
            bits = _stream_bits(allocation, rank_uses, rank_lengths, escaped)
            ratio = bits / original_bits
            if best_ratio is None or ratio < best_ratio:
                best_ratio = ratio
                best_allocation = allocation
        figure10_bits = _stream_bits(FIGURE10, rank_uses, rank_lengths, escaped)
        rows.append(
            Row(
                name=name,
                figure10_ratio=figure10_bits / original_bits,
                best_ratio=best_ratio,
                best_allocation=best_allocation,
                allocations_tried=tried,
            )
        )
    return rows


def render(rows: list[Row]) -> str:
    return render_table(
        ["bench", "Fig10 ratio", "best ratio", "best (n1,n2,n3,n4)",
         "gain (pts)", "tried"],
        [
            (
                row.name,
                pct(row.figure10_ratio),
                pct(row.best_ratio),
                str(row.best_allocation),
                f"{row.improvement_points:.2f}",
                row.allocations_tried,
            )
            for row in rows
        ],
        title=TITLE,
    )
