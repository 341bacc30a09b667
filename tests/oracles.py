"""Independent brute-force oracles used across the test suite.

Everything here recomputes results from first principles, sharing no
evaluation code with the package's solver or rank-based fast paths:

- truth-table bitsets decide small constraint systems by exhaustive
  enumeration (variable i toggles with period 2^i, so a column of all
  2^V assignments packs into one big int);
- naive dense Gaussian elimination for matrix rank;
- explicit enumeration of region Paulis and stabilizer subsets for
  erasure class counting;
- the erasure trial loop in its original form: one stream draw per
  qubit and four dense ranks per trial;
- the system document and the DIMACS text in their original form: a
  dict per constraint through json.dumps, and a clause per forbidden
  parity pattern found by enumeration;
- the encoder in its original form: one namedtuple call per variable and
  per constraint, ids handed out by a counter as variables are made.
"""

from __future__ import annotations

import json
import math

from stabsearch.constraints import (
    ACTIVATOR,
    BOTH,
    EVEN,
    PAULI,
    SAME,
    TAG_BALANCE,
    TAG_BOTH,
    TAG_COMMUTE,
    TAG_EVEN,
    TAG_SAME,
    TAG_SDEG_MAX,
    TAG_SDEG_MIN,
    TAG_XDEG,
    TAG_XIND,
    TAG_ZDEG,
    TAG_ZIND,
    XIND,
    ZIND,
    ConstraintSystem,
    EncodingParams,
    Linear,
    OrClause,
    VarRef,
    XorClause,
)
from stabsearch.css import CssCode
from stabsearch.erasure import Z95, DecodingReport
from stabsearch.graphs import SupportGraph, shared_qubits
from stabsearch.rng import CounterStream, RngSpec


def _column(v: int, num_vars: int) -> int:
    """Truth-table column of variable v over all 2^num_vars assignments."""
    half = 1 << v
    col = ((1 << half) - 1) << half  # 2^v zeros followed by 2^v ones
    width = half << 1
    total = 1 << num_vars
    while width < total:  # double the filled prefix until it spans the table
        col |= col << width
        width <<= 1
    return col


def constraint_column(c, cols: list[int], full: int) -> int:
    """Bitset of assignments satisfying one constraint."""
    if isinstance(c, OrClause):
        acc = 0
        for v, pos in c.lits:
            acc |= cols[v] if pos else (full ^ cols[v])
        return acc
    if isinstance(c, XorClause):
        acc = 0
        for v in c.vars:
            acc ^= cols[v]
        return acc if c.parity == 1 else (full ^ acc)
    # cardinality: layer assignments by how many listed vars are true
    layers = [full]  # layers[j] = assignments with exactly j of the vars seen so far true
    for v in c.vars:
        col = cols[v]
        ncol = full ^ col
        nxt = [layers[0] & ncol]
        for j in range(1, len(layers)):
            nxt.append((layers[j] & ncol) | (layers[j - 1] & col))
        nxt.append(layers[-1] & col)
        layers = nxt
    sat = 0
    for j, bitset in enumerate(layers):
        if c.cmp == ">=":
            ok = j >= c.bound
        elif c.cmp == "<=":
            ok = j <= c.bound
        else:
            ok = j == c.bound
        if ok:
            sat |= bitset
    return sat


def satisfying_set(cs: ConstraintSystem) -> int:
    """Bitset over all 2^V assignments that satisfy every constraint."""
    nv = cs.num_vars
    if nv > 24:
        raise ValueError("exhaustive oracle limited to 24 variables")
    full = (1 << (1 << nv)) - 1
    cols = [_column(v, nv) for v in range(nv)]
    acc = full
    for c in cs.constraints:
        acc &= constraint_column(c, cols, full)
        if acc == 0:
            return 0
    return acc


def brute_force_verdict(cs: ConstraintSystem) -> str:
    return "sat" if satisfying_set(cs) else "unsat"


def assignment_bits(index: int, num_vars: int) -> tuple[int, ...]:
    return tuple((index >> v) & 1 for v in range(num_vars))


def edge_rows(g, bits) -> list[int]:
    """A candidate's rows from one activator bit per edge, in g.edges order:
    rows[s] has bit q set when edge (q, s) is active."""
    rows = [0] * g.m
    for bit, (q, s) in zip(bits, g.edges):
        rows[s] |= bit << q
    return rows


def naive_rank(bits: list[list[int]]) -> int:
    """Dense cubic-time elimination over GF(2), row/column lists."""
    mat = [row[:] for row in bits]
    if not mat:
        return 0
    rows, cols = len(mat), len(mat[0])
    rank = 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, rows):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        for r in range(rows):
            if r != pivot_row and mat[r][col]:
                mat[r] = [a ^ b for a, b in zip(mat[r], mat[pivot_row])]
        rank += 1
        pivot_row += 1
        if pivot_row == rows:
            break
    return rank


def enumerate_subgroup_supports(rows: list[int]) -> set[int]:
    """Distinct support masks of every element generated by the given rows.

    Deduplication matters: dependent generators enumerate elements with
    multiplicity, but the quotient needs distinct group elements.
    """
    supports = {0}
    for row in rows:
        supports |= {s ^ row for s in supports}
    return supports


def brute_force_class_log2(code: CssCode, mask: int) -> int:
    """Count logical classes on an erased region by explicit enumeration.

    X sector: enumerate every X-support inside the region, keep those
    with even overlap against all hz rows, then divide by the number of
    X-stabilizer-group elements supported inside the region.  Z sector
    is symmetric.  Returns log2 of the product of class counts.
    """
    region_bits = [q for q in range(code.n) if (mask >> q) & 1]
    w = len(region_bits)

    def sector_count(check_rows: list[int], own_rows: list[int]) -> int:
        commuting = 0
        for sub in range(1 << w):
            support = 0
            for i in range(w):
                if (sub >> i) & 1:
                    support |= 1 << region_bits[i]
            if all((support & r).bit_count() % 2 == 0 for r in check_rows):
                commuting += 1
        inside = sum(1 for s in enumerate_subgroup_supports(own_rows) if s & ~mask == 0)
        assert commuting % inside == 0
        return commuting // inside

    cx = sector_count(list(code.hz.rows), list(code.hx.rows))
    cz = sector_count(list(code.hx.rows), list(code.hz.rows))
    total = cx * cz
    g = total.bit_length() - 1
    assert 1 << g == total, "class count must be a power of two"
    return g


def _masked_rank(rows: list[int], mask: int, n: int) -> int:
    return naive_rank([[(r >> q) & 1 for q in range(n) if (mask >> q) & 1] for r in rows])


def reference_failure_rate(code: CssCode, p: float, trials: int, rng: RngSpec,
                           estimator: str) -> DecodingReport:
    """The decoding report by the original trial loop.

    Trial t draws qubit q from stream counter t*(n+1) + q as unit < p,
    the bernoulli coin from counter t*(n+1) + n, and takes g from four
    dense ranks: g_X = [|e| - rank(hz on e)] - [rank(hx) - rank(hx off e)],
    g_Z symmetric.
    """
    n, full = code.n, (1 << code.n) - 1
    hx, hz = list(code.hx.rows), list(code.hz.rows)
    unit = CounterStream(rng).unit
    fail_sum = sum_sq = 0.0
    for t in range(trials):
        base = t * (n + 1)
        mask = sum(1 << q for q in range(n) if unit(base + q) < p)
        p_fail = 0.0
        if mask:
            w, comp = mask.bit_count(), full ^ mask
            gx = (w - _masked_rank(hz, mask, n)) - (_masked_rank(hx, full, n) - _masked_rank(hx, comp, n))
            gz = (w - _masked_rank(hx, mask, n)) - (_masked_rank(hz, full, n) - _masked_rank(hz, comp, n))
            p_fail = 1.0 - 2.0 ** (-(gx + gz))
        if estimator == "exact":
            fail_sum += p_fail
            sum_sq += p_fail * p_fail
        else:
            failed = 1.0 if unit(base + n) < p_fail else 0.0
            fail_sum += failed
            sum_sq += failed
    mean = fail_sum / trials
    half = 0.0
    if trials > 1:
        half = Z95 * math.sqrt(max(0.0, (sum_sq - trials * mean * mean) / (trials - 1)) / trials)
    return DecodingReport(p, trials, fail_sum, mean, half)


def reference_system_json(cs: ConstraintSystem) -> str:
    """The v1 system document as json.dumps of one dict per constraint."""
    def cdoc(c) -> dict:
        if isinstance(c, OrClause):
            return {"type": "or", "lits": [[v, int(pos)] for v, pos in c.lits], "tag": c.tag}
        if isinstance(c, XorClause):
            return {"type": "xor", "vars": list(c.vars), "parity": c.parity, "tag": c.tag}
        return {"type": "linear", "vars": list(c.vars), "cmp": c.cmp, "bound": c.bound, "tag": c.tag}

    doc = {
        "format_version": 1,
        "graph": json.loads(cs.graph.to_json()),
        "params": cs.params.to_dict(),
        "variables": [[v.kind, list(v.index)] for v in cs.variables],
        "constraints": [cdoc(c) for c in cs.constraints],
    }
    return json.dumps(doc, sort_keys=True)


def reference_dimacs(cs: ConstraintSystem) -> str:
    """The DIMACS text of cnf.export_cnf, one clause at a time.

    Parities of width <= 3 forbid each odd/even pattern found by counting
    bits, wider ones chain through fresh auxiliaries; cardinalities are
    sequential counters over auxiliaries numbered after the variables.
    """
    clauses: list[tuple[int, ...]] = []
    top = [cs.num_vars]

    def fresh() -> int:
        top[0] += 1
        return top[0]

    def parity_direct(ds, parity):
        for bits in range(1 << len(ds)):
            if bin(bits).count("1") % 2 != parity:
                clauses.append(tuple(-d if (bits >> i) & 1 else d for i, d in enumerate(ds)))

    def parity_chain(ds, parity):
        if len(ds) <= 3:
            return parity_direct(ds, parity)
        acc = ds[0]
        for d in ds[1:-1]:
            t = fresh()
            parity_direct([acc, d, t], 0)
            acc = t
        parity_direct([acc, ds[-1]], parity)

    def at_most(lits, k):
        w = len(lits)
        if k >= w:
            return
        if k < 0:
            t = fresh()
            clauses.extend([(t,), (-t,)])
            return
        if k == 0:
            clauses.extend((-l,) for l in lits)
            return
        s = [[0] * (k + 1) for _ in range(w - 1)]
        for i in range(w - 1):
            for j in range(1, min(i + 1, k) + 1):
                s[i][j] = fresh()
        clauses.append((-lits[0], s[0][1]))
        for i in range(1, w - 1):
            clauses.append((-lits[i], s[i][1]))
            clauses.append((-s[i - 1][1], s[i][1]))
            for j in range(2, min(i + 1, k) + 1):
                clauses.append((-lits[i], -s[i - 1][j - 1], s[i][j]))
                if j <= i:
                    clauses.append((-s[i - 1][j], s[i][j]))
            if i >= k:
                clauses.append((-lits[i], -s[i - 1][k]))
        clauses.append((-lits[w - 1], -s[w - 2][k]))

    def at_least(lits, b):
        if b > len(lits):
            t = fresh()
            clauses.extend([(t,), (-t,)])
        elif b == len(lits):
            clauses.extend((l,) for l in lits)
        elif b > 0:
            at_most([-l for l in lits], len(lits) - b)

    for c in cs.constraints:
        if isinstance(c, OrClause):
            clauses.append(tuple(v + 1 if pos else -(v + 1) for v, pos in c.lits))
        elif isinstance(c, XorClause):
            parity_chain([v + 1 for v in c.vars], c.parity)
        else:
            lits = [v + 1 for v in c.vars]
            if c.cmp in (">=", "=="):
                at_least(lits, c.bound)
            if c.cmp in ("<=", "=="):
                at_most(lits, c.bound)
    lines = ["c stabsearch constraint system export"]
    lines += [f"c map {v} {v + 1}" for v in range(cs.num_vars)]
    lines.append(f"p cnf {top[0]} {len(clauses)}")
    lines += [" ".join(str(l) for l in clause) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def _and_definition(target, in1, in2, tag: str, pos2: bool = True) -> list[OrClause]:
    """target <-> (in1 AND in2) as the standard three clauses, over each
    variable's literal pair; with pos2=False the second input is negated."""
    return [
        OrClause((target[0], in1[1]), tag),
        OrClause((target[0], in2[pos2]), tag),
        OrClause((target[1], in1[0], in2[not pos2]), tag),
    ]


def reference_encode(g: SupportGraph, params: EncodingParams | None = None) -> ConstraintSystem:
    """constraints.encode in its original form, one new_var call per variable."""
    params = params or EncodingParams()
    variables: list[VarRef] = []
    lits: list = []

    def new_var(kind: str, index: tuple[int, ...]) -> int:
        vid = len(variables)
        variables.append(VarRef(kind, index))
        lits.append(((vid, False), (vid, True)))
        return vid

    a_id = {edge: new_var(ACTIVATOR, edge) for edge in g.edges}
    p_id = [new_var(PAULI, (s,)) for s in range(g.m)]

    constraints: list = []
    for s1 in range(g.m):
        for s2 in range(s1 + 1, g.m):
            shared = shared_qubits(g, s1, s2)
            if not shared:
                continue
            same = new_var(SAME, (s1, s2))
            even = new_var(EVEN, (s1, s2))
            both = [new_var(BOTH, (q, s1, s2)) for q in shared]
            constraints.append(OrClause((lits[same][1], lits[even][1]), TAG_COMMUTE))
            constraints.append(XorClause((same, p_id[s1], p_id[s2]), 1, TAG_SAME))
            constraints.append(XorClause((even, *both), 1, TAG_EVEN))
            for q, b in zip(shared, both):
                constraints.extend(_and_definition(lits[b], lits[a_id[(q, s1)]], lits[a_id[(q, s2)]], TAG_BOTH))

    if params.min_qubit_degree > 0:
        x_id = {}
        z_id = {}
        for edge in g.edges:
            x_id[edge] = new_var(XIND, edge)
            z_id[edge] = new_var(ZIND, edge)
        for edge in g.edges:
            a, p = lits[a_id[edge]], lits[p_id[edge[1]]]
            constraints.extend(_and_definition(lits[x_id[edge]], a, p, TAG_XIND))
            constraints.extend(_and_definition(lits[z_id[edge]], a, p, TAG_ZIND, pos2=False))
        for q in range(g.n):
            xs = tuple(x_id[(q, s)] for s in g.qubit_neighbors(q))
            zs = tuple(z_id[(q, s)] for s in g.qubit_neighbors(q))
            constraints.append(Linear(xs, ">=", params.min_qubit_degree, TAG_XDEG))
            constraints.append(Linear(zs, ">=", params.min_qubit_degree, TAG_ZDEG))

    if params.min_stab_degree > 0 or params.max_stab_degree is not None:
        for s in range(g.m):
            acts = tuple(a_id[(q, s)] for q in g.stabilizer_neighbors(s))
            if params.min_stab_degree > 0:
                constraints.append(Linear(acts, ">=", params.min_stab_degree, TAG_SDEG_MIN))
            if params.max_stab_degree is not None and acts:
                constraints.append(Linear(acts, "<=", params.max_stab_degree, TAG_SDEG_MAX))

    if params.balanced:
        constraints.append(Linear(tuple(p_id), "==", g.m // 2, TAG_BALANCE))

    return ConstraintSystem(g, variables, constraints, params)
