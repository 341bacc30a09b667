"""GF(2) matrices packed into Python ints, one int per row (bit j = column j)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def independent_rows(rows: Iterable[int], pivots: dict[int, int]) -> list[int]:
    """The rows that add a pivot, in order, each inserted into the pivot
    table (leading bit -> reduced row) by incremental elimination."""
    out = []
    for row in rows:
        cur = row
        while cur:
            b = cur.bit_length() - 1
            piv = pivots.get(b)
            if piv is None:
                pivots[b] = cur
                out.append(row)
                break
            cur ^= piv
    return out


def rank_int_rows(rows: list[int]) -> int:
    """Rank over GF(2): the number of independent rows."""
    return len(independent_rows(rows, {}))


def rank_masked(rows: list[int], mask: int) -> int:
    """Rank of the matrix restricted to the columns selected by mask."""
    return rank_int_rows([r & mask for r in rows])


def kernel(rows: list[int], cols: Iterable[int]) -> tuple[list[int], int]:
    """A basis of the vectors on the columns cols with even overlap against
    every row, and the number of row XORs the elimination took.

    Basis vector i is the i-th free column of cols, in the order given,
    plus the pivot columns that cancel it.
    """
    cols = list(cols)
    mask = sum(1 << c for c in cols)
    piv: dict[int, int] = {}  # pivot column -> row, zero in every other pivot column
    xors = 0
    for row in rows:
        row &= mask
        for c, r in piv.items():
            if row >> c & 1:
                row ^= r
                xors += 1
        if row:
            b = row.bit_length() - 1
            xors += sum(r >> b & 1 for r in piv.values())
            piv = {c: r ^ row if r >> b & 1 else r for c, r in piv.items()} | {b: row}
    basis = [1 << f | sum(1 << c for c, r in piv.items() if r >> f & 1) for f in cols if f not in piv]
    return basis, xors


@dataclass(frozen=True)
class BitMatrix:
    """Row-major bit-packed matrix; all arithmetic is modulo 2."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self):
        if self.cols < 0:
            raise ValueError("cols must be non-negative")
        limit = 1 << self.cols
        for r in self.rows:
            if not (0 <= r < limit):
                raise ValueError("row value exceeds column count")
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_bits(cls, bits: list[list[int]], cols: int | None = None) -> "BitMatrix":
        if cols is None:
            cols = len(bits[0]) if bits else 0
        rows = []
        for row in bits:
            if len(row) != cols:
                raise ValueError("ragged rows")
            acc = 0
            for j, b in enumerate(row):
                if b:
                    acc |= 1 << j
            rows.append(acc)
        return cls(tuple(rows), cols)

    @classmethod
    def from_strings(cls, strings: list[str], cols: int | None = None) -> "BitMatrix":
        if cols is None:
            cols = len(strings[0]) if strings else 0
        return cls.from_bits([[int(ch) for ch in s] for s in strings], cols)

    def to_strings(self) -> list[str]:
        return ["".join("1" if (r >> j) & 1 else "0" for j in range(self.cols)) for r in self.rows]

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def row_weights(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def total_weight(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def rank(self) -> int:
        return rank_int_rows(list(self.rows))
