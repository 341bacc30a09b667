"""Output checks written apart from the program.

Nothing here imports stabsearch: GF(2) ranks, code-record checks, the
DIMACS reader and the constraint-count closed forms are this benchmark's
own, so a fault in the program's versions cannot hide itself.
"""

from __future__ import annotations


def rank2(rows) -> int:
    """GF(2) rank of int-packed rows, eliminating on the lowest set bit."""
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pivot = rows.pop()
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def parse_rows(strings: list[str]) -> list[int]:
    """Bitstring rows ('0101...', character q = qubit q) to int rows."""
    out = []
    for s in strings:
        acc = 0
        for q, ch in enumerate(s):
            if ch == "1":
                acc |= 1 << q
            elif ch != "0":
                raise ValueError(f"bad matrix character {ch!r}")
        out.append(acc)
    return out


def class_log2(hx: list[int], hz: list[int], n: int, mask: int) -> int:
    """Logical classes supported on an erasure: log2 of their count.

    X sector: X operators on the erasure commuting with every Z check
    (|e| - rank of hz on e), modulo X stabilizers supported on e
    (rank hx - rank hx off e); the Z sector is the mirror image.
    """
    comp = ((1 << n) - 1) ^ mask
    w = bin(mask).count("1")
    gx = (w - rank2([r & mask for r in hz])) - (rank2(hx) - rank2([r & comp for r in hx]))
    gz = (w - rank2([r & mask for r in hx])) - (rank2(hz) - rank2([r & comp for r in hz]))
    return gx + gz


def check_code_record(doc: dict, stab_neighbors=None, delta_q: int | None = None) -> list[str]:
    """Verify one persisted code record; returns a list of faults.

    stab_neighbors, when given, is the sample graph's qubit set per
    stabilizer: the rows must then be the stabilizers in index order,
    X-type rows and Z-type rows each ascending, each row inside its
    stabilizer's candidate qubits.
    """
    faults = []
    cid = doc.get("code_id", "?")
    code = doc["code"]
    n = code["n"]
    hx = parse_rows(code["hx"])
    hz = parse_rows(code["hz"])
    if any(bin(rx & rz).count("1") % 2 for rx in hx for rz in hz):
        faults.append(f"{cid}: hx.hz^T != 0")
    if delta_q is None:
        delta_q = doc["provenance"].get("params", {}).get("min_qubit_degree", 0)
    for q in range(n):
        bit = 1 << q
        x_deg = sum(1 for r in hx if r & bit)
        z_deg = sum(1 for r in hz if r & bit)
        if x_deg < delta_q or z_deg < delta_q:
            faults.append(f"{cid}: qubit {q} has {x_deg} X and {z_deg} Z checks, needs {delta_q}")
            break
    k = n - rank2(hx) - rank2(hz)
    if k != doc["stats"]["k"]:
        faults.append(f"{cid}: k={k} by independent rank, record says {doc['stats']['k']}")
    if stab_neighbors is not None and not _fits_graph(hx, hz, stab_neighbors):
        faults.append(f"{cid}: support does not lie within the sample's graph")
    return faults


def _fits_graph(hx: list[int], hz: list[int], stab_neighbors: list[int]) -> bool:
    """Is there an X/Z split of stabilizers 0..m-1 that places every row in its graph row?"""
    m = len(stab_neighbors)
    if len(hx) + len(hz) != m:
        return False
    reach = {(0, 0)}
    for s in range(m):
        allowed = stab_neighbors[s]
        nxt = set()
        for i, j in reach:
            if i < len(hx) and hx[i] & ~allowed == 0:
                nxt.add((i + 1, j))
            if j < len(hz) and hz[j] & ~allowed == 0:
                nxt.add((i, j + 1))
        reach = nxt
    return (len(hx), len(hz)) in reach


def stab_masks(n: int, m: int, edges) -> list[int]:
    masks = [0] * m
    for q, s in edges:
        masks[s] |= 1 << q
    return masks


def degree_certifies_unsat(n: int, edges, delta_q: int) -> bool:
    """A qubit with fewer than 2*delta_q candidate edges cannot meet the bound."""
    deg = [0] * n
    for q, _ in edges:
        deg[q] += 1
    return min(deg) < 2 * delta_q


def pixel_class(sat: int, unsat: int, unknown: int, threshold: float = 0.9) -> str:
    """The paper's pixel rule: decided share below threshold is unknown."""
    total = sat + unsat + unknown
    if (sat + unsat) / total < threshold:
        return "unknown"
    return "satisfiable" if sat > unsat else "unsatisfiable"


def census_closed_form(graph: dict, params: dict) -> dict:
    """Variable and constraint counts the encoding must produce.

    With E edges, P intersecting stabilizer pairs and S shared qubits:
    variables = E + m + 2P + S, OR = P + 3S, XOR = 2P; the per-qubit
    degree bound adds 2E indicator variables, 6E OR clauses and 2n
    cardinality rows, the stabilizer-degree bounds one row per
    stabilizer, and balance one row.
    """
    n, m = graph["n"], graph["m"]
    edges = graph["edges"]
    e = len(edges)
    masks = stab_masks(n, m, edges)
    pairs = shared = 0
    for s1 in range(m):
        a = masks[s1]
        if not a:
            continue
        for s2 in range(s1 + 1, m):
            c = bin(a & masks[s2]).count("1")
            if c:
                pairs += 1
                shared += c
    out = {
        "variables": e + m + 2 * pairs + shared,
        "or": pairs + 3 * shared,
        "xor": 2 * pairs,
        "linear": 0,
    }
    if params.get("min_qubit_degree", 0) > 0:
        out["variables"] += 2 * e
        out["or"] += 6 * e
        out["linear"] += 2 * n
    if params.get("min_stab_degree", 0) > 0:
        out["linear"] += m
    if params.get("max_stab_degree") is not None:
        out["linear"] += sum(1 for mask in masks if mask)
    if params.get("balanced"):
        out["linear"] += 1
    return out


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, ...]], list[str]]:
    """(declared variables, clauses, faults) of a DIMACS CNF document."""
    faults = []
    header = None
    clauses = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("c"):
            continue
        if line.startswith("p "):
            parts = line.split()
            if header is not None or len(parts) != 4 or parts[1] != "cnf":
                faults.append(f"line {lineno}: bad header {line!r}")
                continue
            header = (int(parts[2]), int(parts[3]))
            continue
        lits = [int(tok) for tok in line.split()]
        if not lits or lits[-1] != 0 or 0 in lits[:-1]:
            faults.append(f"line {lineno}: clause not terminated by a single 0")
            continue
        clauses.append(tuple(lits[:-1]))
    if header is None:
        return 0, clauses, faults + ["no header line"]
    nvars, nclauses = header
    if nclauses != len(clauses):
        faults.append(f"header declares {nclauses} clauses, body has {len(clauses)}")
    for cl in clauses:
        for lit in cl:
            if abs(lit) > nvars:
                faults.append(f"literal {lit} beyond the {nvars} declared variables")
                return nvars, clauses, faults
    return nvars, clauses, faults


def extends_to_model(nvars: int, clauses, fixed: dict[int, bool]) -> bool:
    """Fix some variables, unit-propagate, and test that every clause holds.

    Enough for the commutation encoding, whose auxiliary variables are
    all functions of the original ones.
    """
    val: list[bool | None] = [None] * (nvars + 1)
    for v, b in fixed.items():
        val[v] = b
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            free = None
            nfree = 0
            satisfied = False
            for lit in cl:
                cur = val[abs(lit)]
                if cur is None:
                    nfree += 1
                    free = lit
                elif cur == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if nfree == 0:
                return False
            if nfree == 1:
                val[abs(free)] = free > 0
                changed = True
    for v in range(1, nvars + 1):
        if val[v] is None:
            val[v] = False
    return all(any(val[abs(l)] == (l > 0) for l in cl) for cl in clauses)
