"""CSS stabilizer codes as pairs of GF(2) check matrices.

A solved coloring turns into a code by reading each stabilizer's type
from its Pauli variable and its row support from the active edges.  The
defining invariant is hx . hz^T = 0 over GF(2): every X generator
overlaps every Z generator on an even number of qubits.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass

from .constraints import EncodingParams
from .documents import fields_shape, read_document
from .gf2 import BitMatrix
from .graphs import SupportGraph

CODE_FORMAT_VERSION = 1


class CommutationError(ValueError):
    """An assignment or matrix pair fails the commutation requirement."""


@dataclass(frozen=True)
class CssCode:
    n: int
    hx: BitMatrix
    hz: BitMatrix

    def __post_init__(self):
        _check_n(self.n)
        if self.hx.cols != self.n or self.hz.cols != self.n:
            raise ValueError("check matrices must have n columns")

    def to_json(self) -> str:
        doc = {
            "format_version": CODE_FORMAT_VERSION,
            "n": self.n,
            "hx": self.hx.to_strings(),
            "hz": self.hz.to_strings(),
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, source: str | dict) -> "CssCode":
        shape = {"n": (int,), "hx": (list,), "hz": (list,)}  # matrices as bitstring rows
        doc = read_document("CSS code", source, shape, version=CODE_FORMAT_VERSION)
        n = _check_n(doc["n"])  # before the matrices, which cannot take a negative n
        for key in ("hx", "hz"):
            for i, row in enumerate(doc[key]):
                if type(row) is not str or len(row) != n or row.strip("01"):
                    raise ValueError(f"CSS code: {key}[{i}] must be a string of n={n} "
                                     f"characters 0 or 1, got {row!r}")
        return cls(
            n=n,
            hx=BitMatrix.from_strings(doc["hx"], cols=n),
            hz=BitMatrix.from_strings(doc["hz"], cols=n),
        )


def _check_n(n: int) -> int:
    if n < 1:
        raise ValueError(f"CSS code: n must be at least 1, got {n}")
    return n


def check_commutation(c: CssCode) -> bool:
    """True iff hx . hz^T = 0, i.e. all X/Z generator overlaps are even."""
    for rx in c.hx.rows:
        for rz in c.hz.rows:
            if (rx & rz).bit_count() & 1:
                return False
    return True


def extract_code(g: SupportGraph, a: tuple[int, ...]) -> CssCode:
    """Decode a satisfying assignment into a CSS code.

    Relies on the canonical variable layout: activators first in edge
    order, then one Pauli variable per stabilizer.  Stabilizers with
    Pauli value 1 become hx rows, the rest hz rows; a row has a 1 in
    column q iff the corresponding edge is active.  Rejects assignments
    whose induced generators do not commute.
    """
    n_edges = len(g.edges)
    if len(a) < n_edges + g.m:
        raise ValueError("assignment does not cover the graph's activator and Pauli variables")
    row_of = [0] * g.m
    for i, (q, s) in enumerate(g.edges):
        if a[i]:
            row_of[s] |= 1 << q
    hx_rows = [row_of[s] for s in range(g.m) if a[n_edges + s] == 1]
    hz_rows = [row_of[s] for s in range(g.m) if a[n_edges + s] == 0]
    code = CssCode(n=g.n, hx=BitMatrix(tuple(hx_rows), g.n), hz=BitMatrix(tuple(hz_rows), g.n))
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
    m_x = c.hx.num_rows
    m_z = c.hz.num_rows
    m = m_x + m_z
    k = c.n - c.hx.rank() - c.hz.rank()
    ones = c.hx.total_weight() + c.hz.total_weight()
    density = ones / (m * c.n) if m else 0.0

    qdeg = [
        sum((r >> q) & 1 for r in c.hx.rows) + sum((r >> q) & 1 for r in c.hz.rows)
        for q in range(c.n)
    ]
    sdeg = [r.bit_count() for r in c.hx.rows] + [r.bit_count() for r in c.hz.rows]
    return CodeStats(
        n=c.n,
        m_x=m_x,
        m_z=m_z,
        k=k,
        rate=k / c.n,
        density=density,
        qubit_degree_hist=dict(Counter(qdeg)),
        stab_degree_hist=dict(Counter(sdeg)),
        mean_stab_degree=(sum(sdeg) / m) if m else 0.0,
    )


def satisfies_degree_bounds(c: CssCode, params: EncodingParams) -> bool:
    """Check the degree requirements the encoding was built with."""
    if params.min_qubit_degree > 0:
        for q in range(c.n):
            x_deg = sum((r >> q) & 1 for r in c.hx.rows)
            z_deg = sum((r >> q) & 1 for r in c.hz.rows)
            if x_deg < params.min_qubit_degree or z_deg < params.min_qubit_degree:
                return False
    for w in c.hx.row_weights() + c.hz.row_weights():
        if w < params.min_stab_degree:
            return False
        if params.max_stab_degree is not None and w > params.max_stab_degree:
            return False
    return True


def to_alist(mat: BitMatrix) -> str:
    """Serialize one check matrix in the classical sparse 'alist' layout.

    Header: columns rows, then max column/row weight, the per-column and
    per-row weights, then 1-based indices of nonzeros per column and per
    row.
    """
    n, m = mat.cols, mat.num_rows
    col_lists = [[i + 1 for i in range(m) if (mat.rows[i] >> j) & 1] for j in range(n)]
    row_lists = [[j + 1 for j in range(n) if (mat.rows[i] >> j) & 1] for i in range(m)]
    col_w = [len(c) for c in col_lists]
    row_w = [len(r) for r in row_lists]
    lines = [
        f"{n} {m}",
        f"{max(col_w, default=0)} {max(row_w, default=0)}",
        " ".join(map(str, col_w)),
        " ".join(map(str, row_w)),
    ]
    lines.extend(" ".join(map(str, c)) for c in col_lists)
    lines.extend(" ".join(map(str, r)) for r in row_lists)
    return "\n".join(lines) + "\n"


def from_alist(text: str) -> BitMatrix:
    lines = [ln.strip() for ln in text.strip("\n").split("\n")]
    n, m = map(int, lines[0].split())
    row_start = 4 + n
    rows = [0] * m
    for i in range(m):
        if row_start + i >= len(lines) or not lines[row_start + i]:
            continue
        for tok in lines[row_start + i].split():
            j = int(tok)
            if j > 0:  # zero entries are padding in some writers
                rows[i] |= 1 << (j - 1)
    return BitMatrix(tuple(rows), n)


def shor_code() -> CssCode:
    """The 9-qubit code: two weight-6 X generators, six weight-2 Z generators."""
    hx = BitMatrix.from_strings(["111111000", "000111111"])
    hz = BitMatrix.from_strings(
        ["110000000", "011000000", "000110000", "000011000", "000000110", "000000011"]
    )
    return CssCode(n=9, hx=hx, hz=hz)


def steane_code() -> CssCode:
    """The 7-qubit code: Hamming-code checks on both sides."""
    rows = ["0001111", "0110011", "1010101"]
    return CssCode(n=7, hx=BitMatrix.from_strings(rows), hz=BitMatrix.from_strings(rows))
