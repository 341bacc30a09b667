"""GF(2) matrices as sequences of Python ints, one int per row (bit j = column j).

Every stage keeps a matrix in this form, the kernel probe's candidates and
a code's hx and hz alike; the column count travels beside the rows.
"""

from __future__ import annotations

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


def rank_int_rows(rows: Iterable[int]) -> int:
    """Rank over GF(2): the number of independent rows."""
    return len(independent_rows(rows, {}))


def rank_masked(rows: Iterable[int], mask: int) -> int:
    """Rank of the matrix restricted to the columns selected by mask."""
    return rank_int_rows([r & mask for r in rows])


def reduced_echelon(rows: Iterable[int], mask: int = -1) -> tuple[dict[int, int], int]:
    """The reduced row echelon form of the rows restricted to mask, as leading
    bit -> row, each row zero in every other leading bit; and the number of row
    XORs the elimination took."""
    piv: dict[int, int] = {}
    xors = 0
    for row in rows:
        row &= mask
        for c, r in piv.items():
            if row >> c & 1:
                row ^= r
                xors += 1
        if row:
            b = row.bit_length() - 1
            for c in [c for c, r in piv.items() if r >> b & 1]:
                piv[c] ^= row
                xors += 1
            piv[b] = row
    return piv, xors


def kernel(rows: Iterable[int], cols: Iterable[int]) -> tuple[list[int], int]:
    """A basis of the vectors on the columns cols with even overlap against
    every row, and the number of row XORs the elimination took.

    Basis vector i is the i-th free column of cols, in the order given,
    plus the pivot columns that cancel it.
    """
    cols = list(cols)
    piv, xors = reduced_echelon(rows, sum(1 << c for c in cols))
    basis = [1 << f | sum(1 << c for c, r in piv.items() if r >> f & 1) for f in cols if f not in piv]
    return basis, xors

