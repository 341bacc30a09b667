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
class enumeration.  The decoding loops need two eliminations per erasure
instead.  With row bases Bx, Bz and logical representatives Lx (ker hz
modulo rowspace hx) and Lz (ker hx modulo rowspace hz), rowspace(hx) =
ker [Bz; Lz] gives g_X(e) = rank([Bz; Lz] on e) - rank(Bz on e), and
likewise g_Z from Bx and Lx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .css import CommutationError, CssCode, check_commutation
from .gf2 import independent_rows, kernel, rank_int_rows, rank_masked
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


def _gain(basis: list[int], logicals: list[int], s: int, size: int) -> int:
    """rank([basis; logicals] on s) - rank(basis on s) in one elimination,
    stopping once the pivots span the |s| = size columns."""
    pivots = [0] * s.bit_length()  # leading bit -> row, 0 while free
    rank = 0
    for rows in (basis, logicals):
        start = rank
        for row in rows:
            cur = row & s
            while cur:
                b = cur.bit_length() - 1
                piv = pivots[b]
                if piv:
                    cur ^= piv
                else:
                    pivots[b] = cur
                    rank += 1
                    if rank == size:
                        return 0 if rows is basis else size - start
                    break
    return rank - start


def _class_counter(c: CssCode):
    """Per-code set-up: returns g(mask, weight), equal to logical_class_log2."""
    if not check_commutation(c):
        raise CommutationError("check matrices do not commute")
    bx, bz = independent_rows(c.hx, px := {}), independent_rows(c.hz, pz := {})
    lx = independent_rows(kernel(c.hz, range(c.n))[0], px)
    lz = independent_rows(kernel(c.hx, range(c.n))[0], pz)

    def class_log2(mask: int, w: int) -> int:
        return _gain(bz, lz, mask, w) + _gain(bx, lx, mask, w)

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
                p_fail = 1.0 - 2.0 ** (-class_log2(mask, mask.bit_count()))
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
            total += prob * (1.0 - 2.0 ** (-class_log2(mask, w)))
    return total


def erasure_capacity_limit(rate: float) -> float:
    """Largest erasure probability a rate-R family can tolerate: (1 - R) / 2."""
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    return (1.0 - rate) / 2.0
