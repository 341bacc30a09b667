"""DIMACS CNF export for constraint systems.

XOR constraints are chain-decomposed with fresh auxiliaries (direct
truth-table expansion at width <= 3), and cardinality constraints are
expanded through sequential-counter networks (Sinz 2005; an at-least
bound is an at-most bound on the negated literals).  Original variable
v maps to DIMACS variable v + 1; auxiliaries come after num_orig.  The
map is embedded as comment lines.

CnfExport keeps text, num_orig, num_vars and num_clauses: the clause
list is the body of text after its "p cnf" header, num_clauses lines.
assignment_from_model pulls a model found by an external solver back
onto the original variables.  Literal l's string is built once, at index
l (2v: "v+1", 2v + 1: "-(v+1)"); an OR clause joins its literals' strings,
and an XOR or cardinality row is one % format over its positive ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable

from .constraints import ConstraintSystem, OrClause, XorClause, gc_paused


@dataclass(frozen=True)
class CnfExport:
    """DIMACS text, whose clauses are the num_clauses lines after its header."""

    text: str
    num_orig: int  # original variable v is DIMACS variable v + 1
    num_vars: int
    num_clauses: int

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


class _Network:
    """The clauses of one row shape over slots: the row's variables are
    1..width and its auxiliaries are numbered after them."""

    def __init__(self, width: int):
        self.top = width
        self.clauses: list[tuple[int, ...]] = []

    def fresh(self) -> int:
        self.top += 1
        return self.top

    def emit(self, *lits: int):
        self.clauses.append(lits)

    def contradiction(self):
        t = self.fresh()
        self.emit(t)
        self.emit(-t)

    def parity(self, dvars: list[int], parity: int):
        """XOR(dvars) = parity: chained through fresh auxiliaries above width 3,
        and at width <= 3 one clause per forbidden pattern."""
        if len(dvars) > 3:
            acc = dvars[0]
            for nxt in dvars[1:-1]:
                t = self.fresh()
                self.parity([acc, nxt, t], 0)  # t = acc xor nxt
                acc = t
            dvars = [acc, dvars[-1]]
        for bits in range(1 << len(dvars)):
            if bits.bit_count() & 1 != parity:
                self.emit(*[-d if bits >> i & 1 else d for i, d in enumerate(dvars)])

    def at_most(self, lits: list[int], k: int):
        """Sequential-counter at-most-k over slot literals."""
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


def _shape(key: tuple) -> tuple[str, Callable, int, int]:
    """(format, getter, auxiliaries, clauses) of an XOR key (parity, width) or a
    cardinality key (cmp, bound, width).  The format joins the clauses with
    " 0\\n", one %s per literal and -%s per negated one; the getter picks the
    fields from the positive literal strings of the row's slots."""
    *rule, width = key
    net = _Network(width)
    slots = list(range(1, width + 1))
    if len(rule) == 1:
        net.parity(slots, rule[0])
    else:
        cmp, bound = rule
        if cmp in (">=", "=="):  # at least bound: at most width - bound of the negations
            net.at_most([-l for l in slots], width - bound)
        if cmp in ("<=", "=="):
            net.at_most(slots, bound)
    fields = [abs(l) - 1 for clause in net.clauses for l in clause]
    fmt = " 0\n".join([" ".join(["%s" if l > 0 else "-%s" for l in clause]) for clause in net.clauses])
    # with one field the getter returns that string, which % takes as its one argument
    return fmt, itemgetter(*fields) if fields else lambda flat: (), net.top - width, len(net.clauses)


@gc_paused
def export_cnf(cs: ConstraintSystem) -> CnfExport:
    """Render a constraint system as DIMACS CNF with a variable side-table."""
    n_orig = top = cs.num_vars
    lit = [text for v in range(n_orig) for text in (str(v + 1), str(-v - 1))]  # per literal
    bodies: list[str] = []  # clause lines without their " 0", one or more per entry
    num_clauses = 0
    shapes: dict[tuple, tuple[str, Callable, int, int]] = {}
    for c in cs.constraints:
        if isinstance(c, OrClause):
            bodies.append(" ".join(map(lit.__getitem__, c.lits)))
            num_clauses += 1
            continue
        key = (c.parity, len(c.vars)) if isinstance(c, XorClause) else (c.cmp, c.bound, len(c.vars))
        fmt, get, n_aux, n_clauses = shapes.get(key) or shapes.setdefault(key, _shape(key))
        flat = [lit[2 * v] for v in c.vars]
        if n_aux:  # the row's auxiliaries are the next n_aux DIMACS variables
            flat += map(str, range(top + 1, top + n_aux + 1))
            top += n_aux
        if n_clauses:
            bodies.append(fmt % get(flat))
            num_clauses += n_clauses
    head = ["c stabsearch constraint system export\n"]
    head += ["c map %d %s\n" % (v, lit[2 * v]) for v in range(n_orig)]
    head.append("p cnf %d %d\n" % (top, num_clauses))
    if bodies:
        head += [" 0\n".join(bodies), " 0\n"]
    return CnfExport("".join(head), n_orig, top, num_clauses)
