"""CSS stabilizer codes as pairs of GF(2) check matrices.

A code holds its checks as int rows, bit q = qubit q, the form the
kernel probe's candidates and the erasure decoder use too.  A solved
coloring turns into a code through constraints.model_candidate, which
reads each stabilizer's row from its active edges and its type from its
Pauli variable.  The defining invariant is hx . hz^T = 0 over GF(2):
every X generator overlaps every Z generator on an even number of
qubits.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass

from .constraints import EncodingParams, model_candidate
from .documents import fields_shape, read_document
from .gf2 import rank_int_rows
from .graphs import SupportGraph

CODE_FORMAT_VERSION = 1


class CommutationError(ValueError):
    """An assignment or matrix pair fails the commutation requirement."""


@dataclass(frozen=True)
class CssCode:
    """A code on n qubits; hx and hz hold one int per X and Z check, bit q = qubit q."""

    n: int
    hx: tuple[int, ...]
    hz: tuple[int, ...]

    def __post_init__(self):
        limit = 1 << _check_n(self.n)
        for key in ("hx", "hz"):
            rows = tuple(getattr(self, key))
            object.__setattr__(self, key, rows)
            for i, row in enumerate(rows):
                if not 0 <= row < limit:
                    raise ValueError(f"CSS code: {key}[{i}] = {row} is not a row on n={self.n} qubits")

    def to_json(self) -> str:
        doc = {
            "format_version": CODE_FORMAT_VERSION,
            "n": self.n,
            "hx": [format(r, f"0{self.n}b")[::-1] for r in self.hx],
            "hz": [format(r, f"0{self.n}b")[::-1] for r in self.hz],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, source: str | dict) -> "CssCode":
        shape = {"n": (int,), "hx": (list,), "hz": (list,)}  # matrices as bitstring rows
        doc = read_document("CSS code", source, shape, version=CODE_FORMAT_VERSION)
        n = _check_n(doc["n"])  # before the rows, whose length it fixes
        for key in ("hx", "hz"):
            for i, row in enumerate(doc[key]):
                if type(row) is not str or len(row) != n or row.strip("01"):
                    raise ValueError(f"CSS code: {key}[{i}] must be a string of n={n} "
                                     f"characters 0 or 1, got {row!r}")
        return cls(n, _rows(doc["hx"]), _rows(doc["hz"]))


def _check_n(n: int) -> int:
    if n < 1:
        raise ValueError(f"CSS code: n must be at least 1, got {n}")
    return n


def _rows(strings: list[str]) -> tuple[int, ...]:
    """Int rows of bitstrings whose character q is qubit q."""
    return tuple(int(s[::-1], 2) for s in strings)


def check_commutation(c: CssCode) -> bool:
    """True iff hx . hz^T = 0, i.e. all X/Z generator overlaps are even."""
    for rx in c.hx:
        for rz in c.hz:
            if (rx & rz).bit_count() & 1:
                return False
    return True


def extract_code(g: SupportGraph, a: tuple[int, ...]) -> CssCode:
    """Decode a satisfying assignment into a CSS code.

    Stabilizers with Pauli value 1 become hx rows, the rest hz rows, in
    stabilizer order; a row has bit q set iff edge (q, s) is active.
    Rejects assignments whose induced generators do not commute.
    """
    rows, paulis = model_candidate(g, a)
    hx = tuple(r for r, x in zip(rows, paulis) if x)
    hz = tuple(r for r, x in zip(rows, paulis) if not x)
    code = CssCode(g.n, hx, hz)
    if not check_commutation(code):
        raise CommutationError("assignment induces anticommuting stabilizer generators")
    return code


@dataclass(frozen=True)
class CodeStats:
    n: int
    m_x: int
    m_z: int
    k: int
    rate: float
    density: float
    qubit_degree_hist: dict
    stab_degree_hist: dict
    mean_stab_degree: float

    _HISTOGRAMS = ("qubit_degree_hist", "stab_degree_hist")

    def to_dict(self) -> dict:
        # JSON keys are strings, so sort_keys orders "10" before "3" in every record
        doc = asdict(self)
        for key in self._HISTOGRAMS:
            doc[key] = {str(d): c for d, c in doc[key].items()}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "CodeStats":
        doc = read_document("code stats", doc, *fields_shape(cls))
        for key in cls._HISTOGRAMS:
            try:
                doc[key] = {int(d): c for d, c in doc[key].items()}
            except ValueError as exc:
                raise ValueError(f"code stats: key {key!r}: {exc}") from None
        return cls(**doc)


def stats(c: CssCode) -> CodeStats:
    """Code parameters: k from ranks (generators may be dependent), density,
    and degree histograms of the Tanner graph."""
    rows = c.hx + c.hz
    m = len(rows)
    k = c.n - rank_int_rows(c.hx) - rank_int_rows(c.hz)
    qdeg = [sum(r >> q & 1 for r in rows) for q in range(c.n)]
    sdeg = [r.bit_count() for r in rows]
    return CodeStats(
        n=c.n,
        m_x=len(c.hx),
        m_z=len(c.hz),
        k=k,
        rate=k / c.n,
        density=sum(sdeg) / (m * c.n) if m else 0.0,
        qubit_degree_hist=dict(Counter(qdeg)),
        stab_degree_hist=dict(Counter(sdeg)),
        mean_stab_degree=(sum(sdeg) / m) if m else 0.0,
    )


def satisfies_degree_bounds(c: CssCode, params: EncodingParams) -> bool:
    """Check the degree requirements the encoding was built with, and its
    balance row: under params.balanced, floor(m/2) of the m rows are X type."""
    if params.balanced and len(c.hx) != (len(c.hx) + len(c.hz)) // 2:
        return False
    if params.min_qubit_degree > 0:
        for q in range(c.n):
            x_deg = sum(r >> q & 1 for r in c.hx)
            z_deg = sum(r >> q & 1 for r in c.hz)
            if x_deg < params.min_qubit_degree or z_deg < params.min_qubit_degree:
                return False
    for r in c.hx + c.hz:
        w = r.bit_count()
        if w < params.min_stab_degree:
            return False
        if params.max_stab_degree is not None and w > params.max_stab_degree:
            return False
    return True


def shor_code() -> CssCode:
    """The 9-qubit code: two weight-6 X generators, six weight-2 Z generators."""
    hx = _rows(["111111000", "000111111"])
    hz = _rows(["110000000", "011000000", "000110000", "000011000", "000000110", "000000011"])
    return CssCode(n=9, hx=hx, hz=hz)


def steane_code() -> CssCode:
    """The 7-qubit code: Hamming-code checks on both sides."""
    rows = _rows(["0001111", "0110011", "1010101"])
    return CssCode(n=7, hx=rows, hz=rows)
