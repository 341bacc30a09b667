"""Candidate codes built from the support graph alone, before any search.

A Candidate is (rows, paulis): rows[s] is the qubit bitmask of
stabilizer s's active edges and paulis[s] its Pauli type (1 for X).
Nothing here reads a constraint system: solver.solve completes each
candidate with constraints.consistent_completion and checks a kernel hit.
"""

from __future__ import annotations

import random

from .gf2 import kernel
from .graphs import SupportGraph
from .rng import stable_hash64

# Random X/Z splits the kernel probe tries, Z-degree repair moves per try,
# and the chance of a move that raises the Z-degree shortfall (see _kernel_try).
_KERNEL_TRIES = 16
_KERNEL_STEPS = 200
_KERNEL_NOISE = 0.3

Candidate = tuple[list[int], list[int]]


def greedy_candidate(g: SupportGraph, dq: int, balanced: bool) -> Candidate:
    """The first ceil(m/2) stabilizers (floor(m/2) when balanced) on the X
    side, and per qubit its first dq edges of each type.  Rarely satisfies
    commutation outright but lands near a feasible region."""
    n_x = g.m // 2 if balanced else (g.m + 1) // 2
    paulis = [1 if s < n_x else 0 for s in range(g.m)]
    rows = [0] * g.m
    for q in range(g.n):
        x_left = z_left = dq
        for s in g.qubit_neighbors(q):
            if paulis[s] and x_left > 0:
                rows[s] |= 1 << q
                x_left -= 1
            elif not paulis[s] and z_left > 0:
                rows[s] |= 1 << q
                z_left -= 1
    return rows, paulis


def kernel_candidate(g: SupportGraph, dq: int, seed: int) -> tuple[Candidate | None, int]:
    """The first of _KERNEL_TRIES random X sides whose Z side, solved by
    elimination, gives every qubit dq edges of each type, or None; and the
    work spent.  Tries draw from their own seeded stream.  A work unit is
    one GF(2) row XOR, a repair or lightening move weighed included."""
    rng = random.Random(stable_hash64("kernel", seed))
    work = 0
    for _ in range(_KERNEL_TRIES):
        candidate, spent = _kernel_try(g, dq, rng)
        work += spent
        if candidate is not None:
            return candidate, work
    return None, work


def _kernel_try(g: SupportGraph, dq: int, rng: random.Random) -> tuple[Candidate | None, int]:
    """One kernel-probe candidate in which every qubit meets dq on both
    sides, or None; and its work.

    Puts a random floor(m/2) stabilizers, in a random order, on the X
    side and activates each qubit's first dq X candidates in that order,
    which fixes hx and leaves the last X rows empty.  A Z row commutes
    with hx iff it lies in the kernel of hx on its stabilizer's candidate
    qubits, so each Z row starts as a random kernel element.  Then, for
    a random qubit short of dq Z edges, the kernel basis vector that adds
    it and lowers the total shortfall most is XORed into one of its Z
    rows; a move that raises the shortfall is taken with probability
    _KERNEL_NOISE.  Last, until none applies, a Z row is emptied, or a
    basis vector XORed into it, whenever that lowers the row's weight
    and keeps every Z degree at least dq.  Empty rows add no rank, so
    they raise k.  None as soon as a qubit has fewer than dq candidates
    on a side, or fewer than dq Z rows whose kernel reaches it, or once
    _KERNEL_STEPS moves leave a qubit short.
    """
    x_order = rng.sample(range(g.m), g.m // 2)
    paulis = [int(s in x_order) for s in range(g.m)]
    x_cands = [[s for s in x_order if s in g.qubit_neighbors(q)] for q in range(g.n)]
    reach = [len(g.qubit_neighbors(q)) - len(xs) for q, xs in enumerate(x_cands)]
    if min(map(len, x_cands)) < dq or min(reach) < dq:
        return None, 0
    rows = [0] * g.m  # each stabilizer's active qubits
    for q, xs in enumerate(x_cands):
        for s in xs[:dq]:
            rows[s] |= 1 << q
    hx = [rows[s] for s in range(g.m) if paulis[s]]
    bases = {}
    zdeg = [0] * g.n
    work = 0
    for s in range(g.m):
        if paulis[s]:
            continue
        bases[s], xors = kernel(hx, g.stabilizer_neighbors(s))
        work += xors
        support = 0
        for b in bases[s]:
            support |= b
        for q in g.stabilizer_neighbors(s):
            if not support >> q & 1:
                reach[q] -= 1
                if reach[q] < dq:
                    return None, work
        pick = rng.getrandbits(len(bases[s]))
        for i, b in enumerate(bases[s]):
            if pick >> i & 1:
                rows[s] ^= b
                work += 1
        for q in g.stabilizer_neighbors(s):
            zdeg[q] += rows[s] >> q & 1
    for _ in range(_KERNEL_STEPS):
        short = [q for q in range(g.n) if zdeg[q] < dq]
        if not short:
            break
        short_mask = sum(1 << q for q in short)
        tight_mask = sum(1 << q for q in range(g.n) if zdeg[q] == dq)
        q = rng.choice(short)
        best = None
        for s in g.qubit_neighbors(q):
            if paulis[s] or rows[s] >> q & 1:
                continue
            for b in bases[s]:
                if b >> q & 1:
                    work += 1
                    rise = (rows[s] & b & tight_mask).bit_count() - (b & ~rows[s] & short_mask).bit_count()
                    if best is None or rise < best[0]:
                        best = (rise, s, b)
        if best is None or (best[0] > 0 and rng.random() >= _KERNEL_NOISE):
            continue
        _, s, b = best
        for r in g.stabilizer_neighbors(s):
            if b >> r & 1:
                zdeg[r] += -1 if rows[s] >> r & 1 else 1
        rows[s] ^= b
    if min(zdeg) < dq:
        return None, work
    lighter = True
    while lighter:
        lighter = False
        for s, basis in bases.items():
            for b in (rows[s], *basis):
                work += 1
                drop = rows[s] & b
                if 2 * drop.bit_count() > b.bit_count() and all(
                        zdeg[q] > dq for q in g.stabilizer_neighbors(s) if drop >> q & 1):
                    for q in g.stabilizer_neighbors(s):
                        zdeg[q] += (b >> q & 1) - 2 * (drop >> q & 1)
                    rows[s] ^= b
                    lighter = True
    return (rows, paulis), work
