"""Erasure-channel analysis with an exact maximum-likelihood success law.

After erasing a known set of qubits, the residual noise is a uniformly
random Pauli on the erased region.  A maximum-likelihood decoder picks
one representative per syndrome class, so it succeeds with probability
2^(-g), where 2^g counts the equivalence classes of region-supported
Pauli operators that commute with every generator, modulo stabilizers
supported inside the region.

For CSS codes the count splits into X and Z sectors.  The reference,
``logical_class_log2``, takes four GF(2) ranks of column-restricted check
matrices, g_X = [|e| - rank(hz on e)] - [rank(hx) - rank(hx off e)] and
symmetrically for g_Z; the test suite checks it against a brute-force
class enumeration.  The decoding loops need one column elimination per
sector instead.  With B a row basis of hz and L logical representatives
(ker hx modulo rowspace hz), rowspace(hx) = ker [B; L] gives
g_X(e) = rank([B; L] on e) - rank(B on e); g_Z swaps hx and hz.  Per code,
column j of [L; B] is one int, the k logical rows in the low bits and the
basis rows above them.  Per erasure the columns in e go into a leading-bit
pivot table.  In an echelon basis of V = span{columns in e}, the vectors
whose leading bit is below k span V ∩ (logical block), of dimension
dim V - dim(V projected on the basis block) = g_X(e).  With B in reduced
echelon form and L reduced modulo B, the column at each leading bit of B
is a single basis bit.  Those columns are not inserted: their span lies in
the basis block, so clearing their bits in the other columns leaves
V ∩ (logical block) as it is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .css import CommutationError, CssCode, check_commutation
from .gf2 import kernel, rank_int_rows, rank_masked, reduced_echelon
from .rng import RngSpec

Z95 = 1.959963984540054  # two-sided 95% normal quantile
_BLOCK_DRAWS = 1 << 13  # failure_rate draws about this many counters per bernoulli_bits call


@dataclass(frozen=True)
class ErasurePattern:
    """Erased-qubit indicator vector, packed little-endian (bit q = qubit q)."""

    n: int
    mask: int

    def __post_init__(self):
        if not (0 <= self.mask < (1 << self.n)):
            raise ValueError("mask has bits outside the qubit range")

    @property
    def weight(self) -> int:
        return self.mask.bit_count()


def sample_erasure(n: int, p: float, rng: RngSpec, base_index: int = 0) -> ErasurePattern:
    """Erase each qubit independently with probability p.

    Qubit q consumes stream counter base_index + q, so non-overlapping
    base indices give independent patterns from one stream.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return ErasurePattern(n=n, mask=int(rng.bernoulli_bits(base_index, n, p)[::-1], 2))


def _sector(checks: tuple[int, ...], dual: tuple[int, ...], n: int):
    """One sector's per-code set-up: (k, k + rank B, tables).  B is rowspace(checks)
    and L is ker(dual) modulo B, both in reduced echelon form.  Column j of [L; B]
    is one int, logical i at bit i and basis row r at bit k + r; a column that is
    a single basis bit is a unit, and every other nonzero column is kept.  Tables
    c, (kept, units), map the byte of a mask on qubits 8c..8c+7 to the tuple of its
    kept columns and to the OR of its units."""
    basis = reduced_echelon(checks)[0]
    logicals = kernel(dual, range(n))[0]
    for c, r in basis.items():  # L modulo B: zero in every leading bit of B
        logicals = [row ^ r if row >> c & 1 else row for row in logicals]
    logicals = reduced_echelon(logicals)[0]
    k = len(logicals)
    cols = [0] * n
    for i, row in enumerate([*logicals.values(), *basis.values()]):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    tables = []
    for start in range(0, n, 8):
        kept, units = [()], [0]  # doubled once per column: entry s is for byte s
        for col in cols[start:start + 8]:
            if col & (col - 1) or 0 < col < 1 << k:  # neither zero nor a unit
                kept += [t + (col,) for t in kept]
                units += units
            else:
                kept += kept
                units += [u | col for u in units]
        tables.append((kept, units))
    return k, k + len(basis), tables


@functools.lru_cache(maxsize=1)
def _class_counter(c: CssCode):
    """Per-code set-up: returns class_log2(mask), equal to logical_class_log2.
    Cached for the last code, as decoding runs one code over a grid of p."""
    if not check_commutation(c):
        raise CommutationError("check matrices do not commute")
    sectors = [s for s in (_sector(c.hz, c.hx, c.n), _sector(c.hx, c.hz, c.n)) if s[0]]  # k > 0
    nbytes = (c.n + 7) // 8

    def class_log2(mask: int) -> int:
        data = mask.to_bytes(nbytes, "little")
        g = 0
        for k, size, tables in sectors:
            cols, units = (), 0
            for (cols_of, units_of), byte in zip(tables, data):
                cols += cols_of[byte]
                units |= units_of[byte]
            keep = ~units  # the bits of the units are cleared in every kept column
            pivots = [0] * size  # leading bit -> column, 0 while free
            low = 0
            for col in cols:
                col &= keep
                while col:
                    b = col.bit_length() - 1
                    piv = pivots[b]
                    if piv:
                        col ^= piv
                    else:
                        pivots[b] = col
                        if b < k:
                            low += 1
                        break
                if low == k:
                    break
            g += low
        return g

    return class_log2


def logical_class_log2(c: CssCode, e: ErasurePattern) -> int:
    """log2 of the number of logical classes supported on the erasure."""
    if e.n != c.n:
        raise ValueError("pattern length does not match the code")
    hx, hz = c.hx, c.hz
    mask, comp = e.mask, ((1 << c.n) - 1) ^ e.mask
    gx = (e.weight - rank_masked(hz, mask)) - (rank_int_rows(hx) - rank_masked(hx, comp))
    gz = (e.weight - rank_masked(hx, mask)) - (rank_int_rows(hz) - rank_masked(hz, comp))
    g = gx + gz
    if g < 0:
        raise AssertionError("negative class dimension, commutation must be violated")
    return g


def success_probability(c: CssCode, e: ErasurePattern) -> float:
    """Probability that exact ML decoding corrects this erasure: 2^(-g)."""
    return 2.0 ** (-logical_class_log2(c, e))


@dataclass(frozen=True)
class DecodingReport:
    """Failure statistics for one (code, p) point.

    failures is the accumulated failure mass: an integer count under the
    bernoulli estimator, a fractional expectation under the exact one.
    """

    p: float
    trials: int
    failures: float
    failure_rate: float
    ci95: float


def failure_rate(
    c: CssCode,
    p: float,
    trials: int,
    rng: RngSpec,
    estimator: str = "exact",
) -> DecodingReport:
    """Monte-Carlo failure estimate over random erasure patterns.

    estimator="exact" accumulates the per-pattern expected failure
    1 - 2^(-g) (lower variance); "bernoulli" draws the decoder's success
    as a coin flip with that probability.  Trial t consumes stream
    counters [t*(n+1), (t+1)*(n+1)): qubit q is erased when
    unit(t*(n+1) + q) < p, and the bernoulli coin is unit(t*(n+1) + n).
    The erasures are drawn in blocks of trials, one rng.bernoulli_bits
    call of about _BLOCK_DRAWS counters per block, so memory stays
    bounded for any trial count and the counters each trial reads are
    the same as one draw per trial would read.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if estimator not in ("exact", "bernoulli"):
        raise ValueError(f"unknown estimator {estimator!r}")
    n = c.n
    class_log2 = _class_counter(c)
    fail_sum = 0.0
    sum_sq = 0.0
    stride = n + 1
    block = max(1, _BLOCK_DRAWS // stride)
    for first in range(0, trials, block):
        size = min(block, trials - first)
        bits = rng.bernoulli_bits(first * stride, size * stride, p)
        for at in range(0, size * stride, stride):
            mask = int(bits[at:at + n][::-1], 2)
            if mask:
                p_fail = 1.0 - 2.0 ** (-class_log2(mask))
            else:
                p_fail = 0.0
            if estimator == "exact":
                fail_sum += p_fail
                sum_sq += p_fail * p_fail
            else:
                failed = 1.0 if rng.unit(first * stride + at + n) < p_fail else 0.0
                fail_sum += failed
                sum_sq += failed
    mean = fail_sum / trials
    if trials > 1:
        var = max(0.0, (sum_sq - trials * mean * mean) / (trials - 1))
        half = Z95 * math.sqrt(var / trials)
    else:
        half = 0.0
    return DecodingReport(p=p, trials=trials, failures=fail_sum, failure_rate=mean, ci95=half)


def exact_failure_rate(c: CssCode, p: float) -> float:
    """Exact expected ML failure: full enumeration over all 2^n patterns.

    Only sensible for small n; the Monte-Carlo estimators converge to
    this value.
    """
    if c.n > 22:
        raise ValueError("exact enumeration is limited to n <= 22")
    n = c.n
    class_log2 = _class_counter(c)
    total = 0.0
    for mask in range(1 << n):
        w = mask.bit_count()
        prob = (p ** w) * ((1.0 - p) ** (n - w))
        if prob == 0.0:
            continue
        if mask:
            total += prob * (1.0 - 2.0 ** (-class_log2(mask)))
    return total


def erasure_capacity_limit(rate: float) -> float:
    """Largest erasure probability a rate-R family can tolerate: (1 - R) / 2."""
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    return (1.0 - rate) / 2.0
