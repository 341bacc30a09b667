"""stabsearch: random discovery of sparse CSS stabilizer codes.

Pipeline: sample a random bipartite support graph, encode commutation
and code-quality requirements as an OR/XOR/cardinality constraint
system, solve it, read the satisfying assignment back as a pair of
GF(2) check matrices, and measure erasure-channel performance with an
exact maximum-likelihood success law.
"""

__version__ = "0.1.0"
