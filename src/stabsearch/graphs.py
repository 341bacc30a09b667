"""Random bipartite support graphs over qubit and stabilizer vertices.

A support graph is the candidate edge set from which a code's Tanner
graph is later selected.  Qubit vertices are 0..n-1, stabilizer vertices
0..m-1, and an edge (q, s) marks a candidate qubit/stabilizer incidence.

Sampling is Erdos-Renyi: each of the n*m possible edges is included
independently with probability gamma.  The per-edge uniforms come from a
counter stream in row-major edge order, so two samples of the same
stream at gamma <= gamma' satisfy edges(gamma) being a subset of
edges(gamma') exactly, not just in distribution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import compress, count

from .documents import fields_shape, read_document
from .rng import RngSpec

GRAPH_FORMAT_VERSION = 1
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")  # b"0"/b"1" draws -> false/true bytes


@dataclass(frozen=True)
class SupportGraph:
    """Bipartite graph (qubits 0..n-1) x (stabilizers 0..m-1).

    edges is sorted row-major, i.e. by (q, s); seed and gamma record how
    the graph was sampled.
    """

    n: int
    m: int
    gamma: float
    seed: int
    edges: tuple[tuple[int, int], ...]
    _qubit_adj: tuple = field(init=False, repr=False, compare=False)
    _stab_adj: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n <= 0 or self.m <= 0:
            raise ValueError("n and m must be positive")
        qadj = [[] for _ in range(self.n)]
        sadj = [[] for _ in range(self.m)]
        seen = set()
        for q, s in self.edges:
            if not (0 <= q < self.n and 0 <= s < self.m):
                raise ValueError(f"edge ({q},{s}) out of range for n={self.n}, m={self.m}")
            if (q, s) in seen:
                raise ValueError(f"duplicate edge ({q},{s})")
            seen.add((q, s))
            qadj[q].append(s)
            sadj[s].append(q)
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        object.__setattr__(self, "_qubit_adj", tuple(tuple(sorted(a)) for a in qadj))
        object.__setattr__(self, "_stab_adj", tuple(tuple(sorted(a)) for a in sadj))

    def qubit_neighbors(self, q: int) -> tuple[int, ...]:
        """Stabilizers adjacent to qubit q, ascending."""
        return self._qubit_adj[q]

    def stabilizer_neighbors(self, s: int) -> tuple[int, ...]:
        """Qubits adjacent to stabilizer s, ascending."""
        return self._stab_adj[s]

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        return json.dumps({"format_version": GRAPH_FORMAT_VERSION, **doc}, sort_keys=True)

    @classmethod
    def from_json(cls, source: str | dict) -> "SupportGraph":
        doc = read_document("support graph", source, *fields_shape(cls), GRAPH_FORMAT_VERSION)
        for i, edge in enumerate(doc["edges"]):
            if type(edge) is not list or len(edge) != 2 or any(type(v) is not int for v in edge):
                raise ValueError(f"support graph: edges[{i}] must be a [qubit, stabilizer] "
                                 f"pair of integers, got {edge!r}")
        return cls(**{**doc, "edges": tuple(map(tuple, doc["edges"]))})


def sample_support_graph(n: int, m: int, gamma: float, rng: RngSpec) -> SupportGraph:
    """Sample G(n, m, gamma): each edge present independently with prob gamma.

    Edge (q, s) consumes uniform number q*m + s of the stream, so graphs
    sampled from the same rng at increasing gamma are nested.
    """
    if n <= 0 or m <= 0:
        raise ValueError("n and m must be positive")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    bits = rng.bernoulli_bits(0, n * m, gamma)
    edges = [divmod(i, m) for i in compress(count(), bits.translate(_FLAGS))]
    return SupportGraph(n=n, m=m, gamma=gamma, seed=rng.key, edges=tuple(edges))

