"""DIMACS CNF export for constraint systems.

XOR constraints are chain-decomposed with fresh auxiliaries (direct
truth-table expansion at width <= 3), and cardinality constraints are
expanded through sequential-counter networks (an at-least bound is an
at-most bound on the negated literals).  Original variable v maps to
DIMACS variable v + 1; auxiliaries come after num_orig.  The map is
embedded as comment lines, and assignment_from_model pulls a model
found by an external solver back onto the original variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable

from .constraints import ConstraintSystem, OrClause, XorClause, gc_paused

# (width, parity) -> the sign patterns a width <= 3 parity forbids, one clause each
_PARITY_SIGNS = {(w, p): [tuple(-1 if bits >> i & 1 else 1 for i in range(w))
                          for bits in range(1 << w) if bits.bit_count() & 1 != p]
                 for w in range(4) for p in (0, 1)}


@dataclass(frozen=True)
class CnfExport:
    text: str
    num_orig: int  # original variable v is DIMACS variable v + 1
    num_vars: int
    num_clauses: int
    clauses: tuple[tuple[int, ...], ...]

    def assignment_from_model(self, model: Iterable[int]) -> tuple[int, ...]:
        """Map a DIMACS model (signed literals) back to original variables.

        Variables missing from the model default to 0.
        """
        truth: dict[int, int] = {}
        for lit in model:
            if lit == 0:
                continue
            truth[abs(lit)] = 1 if lit > 0 else 0
        return tuple(truth.get(v + 1, 0) for v in range(self.num_orig))


class _CnfBuilder:
    def __init__(self, n_orig: int):
        self.next_var = n_orig + 1
        self.clauses: list[tuple[int, ...]] = []

    def fresh(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v

    def emit(self, *lits: int):
        self.clauses.append(tuple(lits))

    def contradiction(self):
        t = self.fresh()
        self.emit(t)
        self.emit(-t)

    def parity_direct(self, dvars: list[int], parity: int):
        """Truth-table expansion of XOR(dvars) = parity, width <= 3."""
        self.clauses.extend([tuple(map(mul, signs, dvars))
                             for signs in _PARITY_SIGNS[len(dvars), parity]])

    def parity(self, dvars: list[int], parity: int):
        if len(dvars) <= 3:
            self.parity_direct(dvars, parity)
            return
        acc = dvars[0]
        for nxt in dvars[1:-1]:
            t = self.fresh()
            self.parity_direct([acc, nxt, t], 0)  # t = acc xor nxt
            acc = t
        self.parity_direct([acc, dvars[-1]], parity)

    def at_most(self, lits: list[int], k: int):
        """Sequential-counter at-most-k over DIMACS literals."""
        w = len(lits)
        if k >= w:
            return
        if k < 0:
            self.contradiction()
            return
        if k == 0:
            for l in lits:
                self.emit(-l)
            return
        # s[i][j]: among the first i+1 literals at least j are true
        s = [[0] * (k + 1) for _ in range(w - 1)]
        for i in range(w - 1):
            for j in range(1, min(i + 1, k) + 1):
                s[i][j] = self.fresh()
        self.emit(-lits[0], s[0][1])
        for i in range(1, w - 1):
            self.emit(-lits[i], s[i][1])
            self.emit(-s[i - 1][1], s[i][1])
            for j in range(2, min(i + 1, k) + 1):
                self.emit(-lits[i], -s[i - 1][j - 1], s[i][j])
                if j <= i:
                    self.emit(-s[i - 1][j], s[i][j])
            if i >= k:
                self.emit(-lits[i], -s[i - 1][k])
        self.emit(-lits[w - 1], -s[w - 2][k])

    def at_least(self, lits: list[int], b: int):
        self.at_most([-l for l in lits], len(lits) - b)


@gc_paused
def export_cnf(cs: ConstraintSystem) -> CnfExport:
    """Render a constraint system as DIMACS CNF with a variable side-table."""
    n_orig = cs.num_vars
    b = _CnfBuilder(n_orig)

    for c in cs.constraints:
        if isinstance(c, OrClause):
            b.clauses.append(tuple([v + 1 if pos else -v - 1 for v, pos in c.lits]))
        elif isinstance(c, XorClause):
            b.parity([v + 1 for v in c.vars], c.parity)
        else:
            lits = [v + 1 for v in c.vars]
            if c.cmp in (">=", "=="):
                b.at_least(lits, c.bound)
            if c.cmp in ("<=", "=="):
                b.at_most(lits, c.bound)

    num_vars = b.next_var - 1
    lines = ["c stabsearch constraint system export"]
    lines.extend(f"c map {v} {v + 1}" for v in range(n_orig))
    lines.append(f"p cnf {num_vars} {len(b.clauses)}")
    lines.extend([" ".join(map(str, clause)) + " 0" for clause in b.clauses])
    return CnfExport(
        text="\n".join(lines) + "\n",
        num_orig=n_orig,
        num_vars=num_vars,
        num_clauses=len(b.clauses),
        clauses=tuple(b.clauses),
    )
