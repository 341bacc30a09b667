"""Boolean/linear constraint systems for CSS code search on a support graph.

The encoding works over these variables:

- activator a(q,s): edge (q,s) is active, i.e. kept in the Tanner graph;
- pauli p(s): stabilizer s acts as X (1) or Z (0) on its active edges;
- same(s1,s2): the two stabilizers have the same Pauli type;
- even(s1,s2): the two stabilizers share an even number of active qubits;
- both(q,s1,s2): both edges (q,s1) and (q,s2) are active;
- xind(q,s) / zind(q,s): edge is active and its stabilizer is X / Z type.

Two stabilizers commute iff they have the same type or an even active
overlap, so for every stabilizer pair sharing at least one candidate
qubit we emit:

    same OR even                                  (one OR clause)
    same XOR p(s1) XOR p(s2) = 1                  (ties same to type equality)
    even XOR both(q1,..) XOR ... XOR both(qk,..) = 1   (ties even to overlap parity)
    both(q,..) <-> a(q,s1) AND a(q,s2)            (three OR clauses per shared q)

Pairs with no shared qubit commute vacuously and emit nothing.  Degree
and balance requirements are integer cardinality constraints kept in
native form; the solver propagates them directly and the CNF exporter
expands them only on export.  An OR clause holds the solver's literals,
2v for variable v true and 2v + 1 for v false, written [v, 1] and [v, 0].
"""

from __future__ import annotations

import functools
import gc
import json
from collections import Counter
from dataclasses import asdict, dataclass
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Sequence

from .documents import check_fields, fields_shape, parse_document, read_document
from .graphs import SupportGraph

SYSTEM_FORMAT_VERSION = 1

# Variable kinds
ACTIVATOR = "a"
PAULI = "p"
SAME = "same"
EVEN = "even"
BOTH = "both"
XIND = "x"
ZIND = "z"


class VarRef(NamedTuple):
    """An entry of the variable table; a variable's id is its position there."""

    kind: str
    index: tuple[int, ...]


class OrClause(NamedTuple):
    lits: tuple[int, ...]  # 2v: variable v is true, 2v + 1: v is false
    tag: str


class XorClause(NamedTuple):
    vars: tuple[int, ...]
    parity: int  # XOR of the variables must equal this bit
    tag: str


class Linear(NamedTuple):
    vars: tuple[int, ...]  # all coefficients are +1
    cmp: str  # one of ">=", "<=", "=="
    bound: int
    tag: str


Constraint = OrClause | XorClause | Linear
# Row builders, one C call per row: tuple.__new__ on the type, where a
# namedtuple's own __new__ runs a Python frame.
_var, _or, _xor = (functools.partial(tuple.__new__, cls) for cls in (VarRef, OrClause, XorClause))

# Tags, one per constraint family; the census counts by them.
TAG_COMMUTE = "commute-or"
TAG_SAME = "same-xor"
TAG_EVEN = "even-xor"
TAG_BOTH = "both-and"
TAG_XIND = "xind-and"
TAG_ZIND = "zind-and"
TAG_XDEG = "x-degree"
TAG_ZDEG = "z-degree"
TAG_SDEG_MIN = "stab-degree-min"
TAG_SDEG_MAX = "stab-degree-max"
TAG_BALANCE = "balance"


@dataclass(frozen=True)
class EncodingParams:
    """Code-quality requirements layered on top of commutation.

    min_qubit_degree: every qubit must touch at least this many active
        X-type edges and as many active Z-type edges.
    min_stab_degree / max_stab_degree: bounds on active edges per
        stabilizer (max_stab_degree=None means unbounded).
    balanced: exactly floor(m/2) stabilizers are X type.
    """

    min_qubit_degree: int = 0
    min_stab_degree: int = 0
    max_stab_degree: int | None = None
    balanced: bool = False

    def __post_init__(self):
        check_fields("encoding params", self)
        if self.min_qubit_degree < 0 or self.min_stab_degree < 0:
            raise ValueError("degree bounds must be non-negative")
        if self.max_stab_degree is not None and self.max_stab_degree < self.min_stab_degree:
            raise ValueError("max_stab_degree must be >= min_stab_degree")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "EncodingParams":
        """Params from a JSON object, checked by documents.read_document."""
        return cls(**read_document("encoding params", doc, *fields_shape(cls)))


def gc_paused(fn):
    """fn with the collector paused, safe as the pipeline makes no reference cycles.
    Builders and jobs (one sample, one CLI document command) pause it, never a sweep,
    whose pool workers would inherit the pause.  The outermost pause ends with one
    young pass, over only what fn keeps alive, and re-enables the collector."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.collect(0)
                gc.enable()
    return paused


class ConstraintSystem:
    """Immutable bundle of a graph, a variable table and constraints.

    Variable ids are dense and assigned in a canonical order (activators
    row-major, then paulis, then pair auxiliaries, then type indicators),
    so re-encoding a graph reproduces the system exactly.  The constructor
    stores its parts as given.  A document enters through from_json, which
    re-encodes its graph and params, so only encode and to_json know the
    constraint format.
    """

    def __init__(
        self,
        graph: SupportGraph,
        variables: Iterable[VarRef],
        constraints: Iterable[Constraint],
        params: EncodingParams | None = None,
    ):
        self.graph = graph
        self.variables = tuple(variables)
        self.constraints = tuple(constraints)
        self.params = params or EncodingParams()

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @gc_paused
    def to_json(self) -> str:
        """json.dumps(document, sort_keys=True), with each constraint written directly."""
        tags: dict[str, str] = {}
        lit = [text for v in range(self.num_vars) for text in (f"[{v}, 1]", f"[{v}, 0]")]  # per literal
        out = []
        for c in self.constraints:
            tag = tags.get(c.tag) or tags.setdefault(c.tag, json.dumps(c.tag))
            if isinstance(c, OrClause):
                lits = ", ".join(map(lit.__getitem__, c.lits))
                out.append('{"lits": [%s], "tag": %s, "type": "or"}' % (lits, tag))
            elif isinstance(c, XorClause):
                out.append('{"parity": %d, "tag": %s, "type": "xor", "vars": [%s]}'
                           % (c.parity, tag, ", ".join(map(str, c.vars))))
            else:
                out.append('{"bound": %d, "cmp": "%s", "tag": %s, "type": "linear", "vars": [%s]}'
                           % (c.bound, c.cmp, tag, ", ".join(map(str, c.vars))))
        params = json.dumps(self.params.to_dict(), sort_keys=True)
        variables = json.dumps(self.variables)  # a VarRef is a tuple: [kind, [index...]]
        tail = f'{_TAIL}{self.graph.to_json()}{_PARAMS}{params}, "variables": {variables}}}'
        if not out:
            return '{"constraints": [' + tail
        out[0] = '{"constraints": [' + out[0]  # the end pieces carry head and tail: one join
        out[-1] += tail
        return ", ".join(out)

    @classmethod
    @gc_paused
    def from_json(cls, source: str | dict) -> "ConstraintSystem":
        """encode(graph, params) for a document's graph and params.  Text that is what
        to_json writes is accepted after reading only the graph and params in its tail.
        Any other document is read whole by read_document and accepted only if its
        canonical JSON, json.dumps(doc, sort_keys=True), is that system's to_json(); else
        the error names the first key or entry that differs."""
        if isinstance(source, str) and (cs := _from_tail(source)) is not None:
            return cs
        kind = "constraint system"
        shape = dict(graph=(dict,), params=(dict,), variables=(list,), constraints=(list,))
        doc = parse_document(kind, source)
        found = read_document(kind, doc, shape, version=SYSTEM_FORMAT_VERSION)
        graph, params = SupportGraph.from_json(found["graph"]), EncodingParams.from_dict(found["params"])
        canonical = _canonical(doc)
        del doc, found  # only the canonical text is kept while the system is built
        cs = encode(graph, params)
        text = cs.to_json()
        if canonical != text:
            doc = parse_document(kind, source)  # parsed again only to name the difference
            raise ValueError(f"{kind}: {_first_difference(doc, json.loads(text))} is not "
                             "what encode writes for the document's graph and params")
        return cs


# to_json's text between the constraints and the graph, and between the graph and the params
_TAIL, _PARAMS = f'], "format_version": {SYSTEM_FORMAT_VERSION}, "graph": ', ', "params": '
_read_value = json.JSONDecoder().raw_decode


def _from_tail(text: str) -> ConstraintSystem | None:
    """The system whose to_json() is text, less a final newline, or None.  Reads only
    the graph after the last _TAIL and the params after it.  Sound however text is
    laid out, as the system is returned only if its to_json() is the text itself."""
    try:
        graph, end = _read_value(text, text.rindex(_TAIL) + len(_TAIL))
        params, _ = _read_value(text, end + len(_PARAMS))
        cs = encode(SupportGraph.from_json(graph), EncodingParams.from_dict(params))
    except ValueError:
        return None
    return cs if text.removesuffix("\n") == cs.to_json() else None


# Canonical JSON text, as to_json writes it; a value JSON cannot hold reads as its repr
_canonical = functools.partial(json.dumps, sort_keys=True, default=repr)


def _first_difference(doc: dict, want: dict) -> str:
    """The first key, or entry of an array, whose canonical text differs between doc and want."""
    got, exp, key = next((doc.get(k), want.get(k), k) for k in sorted(doc.keys() | want.keys())
                         if _canonical(doc.get(k)) != _canonical(want.get(k)))
    if type(got) is not list or type(exp) is not list:
        return key
    diff = (i for i, (a, b) in enumerate(zip(got, exp)) if _canonical(a) != _canonical(b))
    return f"{key}[{next(diff, min(len(got), len(exp)))}]"


def intersecting_pairs(g: SupportGraph) -> list[tuple[int, int, tuple[int, ...]]]:
    """Stabilizer pairs (s1 < s2) with their shared qubits, lexicographic."""
    out = []
    for s1 in range(g.m):
        shared: dict[int, list[int]] = {}  # s2 -> the qubits s1 shares with it, ascending
        for q in g.stabilizer_neighbors(s1):
            for s2 in g.qubit_neighbors(q):
                if s2 > s1:
                    shared.setdefault(s2, []).append(q)
        out += [(s1, s2, tuple(shared[s2])) for s2 in sorted(shared)]
    return out


def degree_obstruction(g: SupportGraph, params: EncodingParams) -> tuple[str, int] | None:
    """The first vertex, ("qubit", q) or ("stabilizer", s), whose candidate edges
    cannot meet params' degree minima, or None.

    An active edge is X or Z type, never both, so a qubit needs 2 * min_qubit_degree
    candidate edges; a stabilizer needs min_stab_degree.  Where a vertex falls short,
    encode(g, params) is unsatisfiable.
    """
    need = 2 * params.min_qubit_degree
    for q in range(g.n):
        if len(g.qubit_neighbors(q)) < need:
            return ("qubit", q)
    need = params.min_stab_degree
    for s in range(g.m):
        if len(g.stabilizer_neighbors(s)) < need:
            return ("stabilizer", s)
    return None


@gc_paused
def encode(g: SupportGraph, params: EncodingParams | None = None) -> ConstraintSystem:
    """Build the constraint system for a support graph in one pass.

    Activator and Pauli variables exist for every edge and stabilizer;
    same/even/both auxiliaries only for pairs that actually intersect.
    The degree and balance constraints that params asks for follow the
    commutation constraints, and type indicators follow the pair
    auxiliaries.  Ids are positions in that order, so they are computed,
    and every OR clause reuses its variables' literal ints.
    """
    params = params or EncodingParams()
    edges, ne, pairs = g.edges, len(g.edges), intersecting_pairs(g)
    first_x = ne + g.m + sum(2 + len(shared) for _, _, shared in pairs)  # x(e) = first_x + 2e, z(e) next
    lits = [(2 * v + 1, 2 * v) for v in range(first_x + 2 * ne * (params.min_qubit_degree > 0))]
    col: list[dict[int, int]] = [{} for _ in range(g.m)]  # col[s][q]: id of activator (q, s)
    for a, (q, s) in enumerate(edges):
        col[s][q] = a
    variables = [_var((ACTIVATOR, edge)) for edge in edges] + [_var((PAULI, (s,))) for s in range(g.m)]
    cons: list[Constraint] = []
    same = ne + g.m  # id of the pair's same(s1, s2); even(s1, s2) and the both(q, s1, s2) follow it
    for s1, s2, shared in pairs:
        both = range(same + 2, same + 2 + len(shared))
        variables += [_var((SAME, (s1, s2))), _var((EVEN, (s1, s2)))]
        variables += [_var((BOTH, (q, s1, s2))) for q in shared]
        cons += [_or(((lits[same][1], lits[same + 1][1]), TAG_COMMUTE)),
                 _xor(((same, ne + s1, ne + s2), 1, TAG_SAME)), _xor(((same + 1, *both), 1, TAG_EVEN))]
        c1, c2 = col[s1], col[s2]
        for q, b in zip(shared, both):  # b <-> a(q, s1) AND a(q, s2)
            (nb, pb), (n1, p1), (n2, p2) = lits[b], lits[c1[q]], lits[c2[q]]
            cons += [_or(((nb, p1), TAG_BOTH)), _or(((nb, p2), TAG_BOTH)), _or(((pb, n1, n2), TAG_BOTH))]
        same = both.stop

    if params.min_qubit_degree > 0:
        for a, edge in enumerate(edges):  # x <-> a AND p, z <-> a AND NOT p
            (nx, px), (nz, pz) = lits[first_x + 2 * a], lits[first_x + 2 * a + 1]
            (na, pa), (nt, pt) = lits[a], lits[ne + edge[1]]  # a(e) and p(s), the type of e's stabilizer
            variables += [_var((XIND, edge)), _var((ZIND, edge))]
            cons += [_or(((nx, pa), TAG_XIND)), _or(((nx, pt), TAG_XIND)), _or(((px, na, nt), TAG_XIND)),
                     _or(((nz, pa), TAG_ZIND)), _or(((nz, nt), TAG_ZIND)), _or(((pz, na, pt), TAG_ZIND))]
        x = first_x
        for q in range(g.n):  # a qubit's edges are consecutive in edges
            end = x + 2 * len(g.qubit_neighbors(q))
            cons.append(Linear(tuple(range(x, end, 2)), ">=", params.min_qubit_degree, TAG_XDEG))
            cons.append(Linear(tuple(range(x + 1, end, 2)), ">=", params.min_qubit_degree, TAG_ZDEG))
            x = end

    if params.min_stab_degree > 0 or params.max_stab_degree is not None:
        for s in range(g.m):
            acts = tuple(col[s].values())  # ascending q, as edges are row-major
            if params.min_stab_degree > 0:
                cons.append(Linear(acts, ">=", params.min_stab_degree, TAG_SDEG_MIN))
            if params.max_stab_degree is not None and acts:
                cons.append(Linear(acts, "<=", params.max_stab_degree, TAG_SDEG_MAX))

    if params.balanced:
        cons.append(Linear(tuple(range(ne, ne + g.m)), "==", g.m // 2, TAG_BALANCE))

    return ConstraintSystem(g, variables, cons, params)


def flip_variable(cs: ConstraintSystem) -> int | None:
    """The id of p(0), stabilizer 0's Pauli variable, where encode's X/Z flip symmetry
    lets a search fix it either way; None where the table does not hold p(0) at id
    len(edges), as encode lays it out, or where balanced params have an odd m.

    The flip negates every p(s), exchanges x(e) with z(e) and fixes every other
    variable.  It maps each constraint family encode writes onto itself:
    - commute-or, even-xor, both-and and the stabilizer degree rows read only
      activators and pair auxiliaries, which it fixes;
    - same-xor, same XOR p(s1) XOR p(s2) = 1, negates two variables, so keeps its parity;
    - xind-and (x <-> a AND p) and zind-and (z <-> a AND NOT p) map onto each other,
      and so do a qubit's x-degree and z-degree rows;
    - balance, sum of p(s) == m // 2, becomes sum of p(s) == m - m // 2: itself iff m is even.
    So the flip maps encode's models onto its models, and one with p(0) = 1 exists iff
    one with p(0) = 0 does.  The layout alone does not make a system encode's:
    is_encoded confirms that before a refutation under a fixed p(0) is trusted.
    """
    p0 = len(cs.graph.edges)
    if cs.params.balanced and cs.graph.m % 2:
        return None
    if p0 >= cs.num_vars or cs.variables[p0] != (PAULI, (0,)):
        return None
    return p0


def is_encoded(cs: ConstraintSystem) -> bool:
    """Whether cs is encode(cs.graph, cs.params), the rule from_json applies to a document."""
    expected = encode(cs.graph, cs.params)
    return cs.variables == expected.variables and cs.constraints == expected.constraints


def consistent_completion(cs: ConstraintSystem, rows: list[int], paulis: list[int]) -> tuple[int, ...]:
    """The total assignment a candidate determines, in one pass over the variable table.

    rows[s] is the qubit bitmask of stabilizer s's active edges, read only
    on its candidate qubits, and paulis[s] its type (1 for X).  Every other
    variable is a function of these: same is type equality, even the parity
    of two rows' overlap, both one bit of that overlap, and x / z an active
    edge of an X or a Z row.
    """
    g = cs.graph
    rows = [rows[s] & sum(1 << q for q in g.stabilizer_neighbors(s)) for s in range(g.m)]
    values = []
    put = values.append
    for kind, index in cs.variables:
        if kind == BOTH:
            q, s1, s2 = index
            put((rows[s1] & rows[s2]) >> q & 1)
        elif kind == ACTIVATOR:
            q, s = index
            put(rows[s] >> q & 1)
        elif kind == XIND:
            q, s = index
            put(rows[s] >> q & paulis[s])
        elif kind == ZIND:
            q, s = index
            put(rows[s] >> q & (1 - paulis[s]))
        elif kind == SAME:
            s1, s2 = index
            put(1 ^ paulis[s1] ^ paulis[s2])
        elif kind == EVEN:
            s1, s2 = index
            put(1 ^ ((rows[s1] & rows[s2]).bit_count() & 1))
        else:
            put(paulis[index[0]])
    return tuple(values)


def model_candidate(g: SupportGraph, values: Sequence[int]) -> tuple[list[int], list[int]]:
    """The candidate (rows, paulis) an assignment determines, the inverse of
    consistent_completion: rows[s] holds the qubits of stabilizer s's true
    activators and paulis[s] its Pauli value.  Reads only the activators,
    first in edge order, and the Pauli variables that follow them."""
    ne = len(g.edges)
    if len(values) < ne + g.m:
        raise ValueError("assignment does not cover the graph's activator and Pauli variables")
    rows = [0] * g.m
    for (q, s), active in zip(g.edges, values):
        if active:
            rows[s] |= 1 << q
    return rows, list(values[ne:ne + g.m])


@dataclass(frozen=True)
class Census:
    """Constraint counts keyed by (constraint class, tag, width)."""

    counts: Counter

    def _count(self, cls) -> int:
        """The number of constraints of class cls."""
        return sum(n for (c, _, _), n in self.counts.items() if c is cls)

    @property
    def or_count(self) -> int:
        return self._count(OrClause)

    @property
    def xor_count(self) -> int:
        return self._count(XorClause)

    @property
    def linear_count(self) -> int:
        return self._count(Linear)


def constraint_census(cs: ConstraintSystem) -> Census:
    """One counting pass over the constraints."""
    cons = cs.constraints
    widths = map(len, map(itemgetter(0), cons))  # field 0 holds the literals or the variables
    return Census(Counter(zip(map(type, cons), map(attrgetter("tag"), cons), widths)))
