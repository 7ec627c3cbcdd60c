"""Exact closed forms, bounds, and rational comparison quantities.

Everything here is integer or Fraction arithmetic; no floating point.
Throughout, g(n, k, l) denotes the largest size of a family in the
(n, k, l) class avoiding the minimum possible scalar product -2l, and
p(n, k, l) = max_x C(x, k) * C(n - x, l) is the best one-cut split count.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple


class DegenerateInstanceError(ValueError):
    """Raised when a requested quantity has a zero or empty denominator side."""


def binom(n: int, r: int) -> int:
    """Binomial coefficient; out-of-range r (or negative n) yields 0."""
    if n < 0 or r < 0 or r > n:
        return 0
    return comb(n, r)


def family_size(n: int, k: int, l: int) -> int:
    """Number of (n, k, l) vectors: C(n, k+l) * C(k+l, k), so 0 when n < k + l."""
    if min(n, k, l) < 0:
        raise ValueError(f"family size requires n, k, l >= 0, got n={n}, k={k}, l={l}")
    return binom(n, k + l) * binom(k + l, k)


def g_closed_l1(n: int, k: int) -> int:
    """Exact g(n, k, 1) for n >= 2k, k >= 2.

    Equals k * C(n-1, k) while 2k <= n <= k*k; beyond that each dimension
    step n' -> n' + 1 adds C(n', k), which sums (hockey stick) to
    C(n, k+1) - C(k*k, k+1).
    """
    if k < 2:
        raise ValueError(f"closed form requires k >= 2, got k={k}")
    if n < 2 * k:
        raise ValueError(f"closed form requires n >= 2k, got n={n}, k={k}")
    if n <= k * k:
        return k * binom(n - 1, k)
    return k * binom(k * k - 1, k) + binom(n, k + 1) - binom(k * k, k + 1)


class GBounds(NamedTuple):
    lower: int
    upper: int


def g_bounds(n: int, k: int, l: int) -> GBounds:
    """General sandwich for g(n, k, l), valid for k > l >= 1, n >= k + l."""
    if not k > l >= 1:
        raise ValueError(f"bounds require k > l >= 1, got k={k}, l={l}")
    if n < k + l:
        raise ValueError(f"bounds require n >= k + l, got n={n}")
    lower = binom(n, k + l) * binom(k + l - 1, l - 1)
    upper = lower + binom(n, 2 * l) * binom(2 * l, l) * binom(n - 2 * l - 1, k - l - 1)
    return GBounds(lower, upper)


class EkrValue(NamedTuple):
    value: int
    in_range: bool


def g_ekr_value(n: int, k: int, l: int) -> EkrValue:
    """Size of the fixed-first-coordinate construction, C(n-1, k+l-1) * C(k+l-1, l).

    in_range flags the window 2k <= n <= 3k - l where this size is the
    exact value of g(n, k, l).
    """
    if not k > l >= 1:
        raise ValueError(f"requires k > l >= 1, got k={k}, l={l}")
    if n < k + l:
        raise ValueError(f"requires n >= k + l, got n={n}")
    value = binom(n - 1, k + l - 1) * binom(k + l - 1, l)
    return EkrValue(value, 2 * k <= n <= 3 * k - l)


class IncrementValue(NamedTuple):
    value: int
    applicable: bool
    conjectured_threshold: Fraction


def increment_value(n: int, k: int, l: int) -> IncrementValue:
    """One-dimension growth count C(n, k+l-1) * C(k+l-1, l-1).

    applicable reflects the proven ranges: n >= 5k^2 when k > l + 1, and
    n >= 2k^3 when k = l + 1.  The conjectured exact threshold
    (k+l-1)(k+l)/l is reported as an exact rational.
    """
    if not k > l >= 1:
        raise ValueError(f"requires k > l >= 1, got k={k}, l={l}")
    if n < k + l:
        raise ValueError(f"requires n >= k + l, got n={n}")
    value = binom(n, k + l - 1) * binom(k + l - 1, l - 1)
    if k == l + 1:
        applicable = n >= 2 * k**3
    else:
        applicable = n >= 5 * k**2
    threshold = Fraction((k + l - 1) * (k + l), l)
    return IncrementValue(value, applicable, threshold)


class SplitValue(NamedTuple):
    value: int
    argmax: int


def p_split(n: int, k: int, l: int) -> SplitValue:
    """Best one-cut split count p(n, k, l) and its smallest maximizer x.

    Maximizes f(x) = C(x, k) * C(n - x, l) over x in [k, n - l]; accepts
    k = 0 or l = 0 (the empty side contributes the factor C(., 0) = 1).
    f(x + 1) <= f(x) exactly when l(x + 1) >= k(n - x), that is when
    x >= (kn - l) / (k + l), so f rises up to the least such x in range
    and never rises after it.
    """
    if k < 0 or l < 0:
        raise ValueError(f"requires k, l >= 0, got k={k}, l={l}")
    if n < k + l:
        raise ValueError(f"requires n >= k + l, got n={n}, k+l={k + l}")
    # -((l - kn) // (k + l)) is the ceiling of (kn - l) / (k + l)
    x = min(n - l, max(k, -((l - k * n) // (k + l)))) if k + l else k
    return SplitValue(binom(x, k) * binom(n - x, l), x)


class IncrementReport(NamedTuple):
    """Transparent comparison of the actual p-increment against two candidates.

    The claimed identity "increment equals the larger candidate" fails in
    general, so the report carries the numbers and verdict booleans
    rather than asserting anything.
    """

    n: int
    k: int
    l: int
    increment: int
    candidate_lower_l: int
    candidate_lower_k: int
    average: Fraction
    equality_holds: bool
    ge_average_holds: bool
    le_min_holds: bool


def p_increment_report(n: int, k: int, l: int) -> IncrementReport:
    """Compare p(n,k,l) - p(n-1,k,l) with p(n-1,k,l-1) and p(n-1,k-1,l)."""
    if not (k >= 1 and l >= 1):
        raise ValueError(f"requires k, l >= 1, got k={k}, l={l}")
    if n < k + l + 1:
        raise ValueError(f"requires n >= k + l + 1 so both sizes exist, got n={n}")
    increment = p_split(n, k, l).value - p_split(n - 1, k, l).value
    cand_l = p_split(n - 1, k, l - 1).value
    cand_k = p_split(n - 1, k - 1, l).value
    average = Fraction(cand_l + cand_k, 2)
    return IncrementReport(
        n=n,
        k=k,
        l=l,
        increment=increment,
        candidate_lower_l=cand_l,
        candidate_lower_k=cand_k,
        average=average,
        equality_holds=increment == max(cand_l, cand_k),
        ge_average_holds=increment >= average,
        le_min_holds=increment <= min(cand_l, cand_k),
    )


def n0_threshold(k: int, l: int) -> int:
    """Dimension (k + l) * 2^(k + l + 2) past which the split count is provably extremal."""
    if k < 1 or l < 1:
        raise ValueError(f"requires k, l >= 1, got k={k}, l={l}")
    return (k + l) * 2 ** (k + l + 2)


class XYSizes(NamedTuple):
    x_size: int
    y_size: int


def xy_family_sizes(n: int, k: int, l: int, t: int, m: int) -> XYSizes:
    """Exact sizes of the two window-comparison classes over dimension n + 1.

    Vectors live in dimension n + 1 with the last coordinate fixed.
    Y side (last coordinate +1): m minus and t plus coordinates inside
    the window [1, 2t-1].  X side (last coordinate -1): m plus and
    max(t - (k - l), 0) minus coordinates inside the window.
    """
    if not (1 <= t <= k):
        raise ValueError(f"requires 1 <= t <= k, got t={t}")
    if l < 0:
        raise ValueError(f"xy sizes require l >= 0, got l={l}")
    if m < 0:
        raise ValueError(f"requires m >= 0, got m={m}")
    # the window must avoid the fixed final coordinate n + 1
    if 2 * t - 1 > n:
        raise ValueError(f"window [1, {2 * t - 1}] reaches past coordinate {n}")
    rest = n - 2 * t + 1
    y_size = (
        binom(2 * t - 1, m)
        * binom(2 * t - 1 - m, t)
        * binom(rest, l - m)
        * binom(rest - (l - m), k - 1 - t)
    )
    mu = max(t - (k - l), 0)
    x_size = (
        binom(2 * t - 1, m)
        * binom(2 * t - 1 - m, mu)
        * binom(rest, k - m)
        * binom(rest - (k - m), l - 1 - mu)
    )
    return XYSizes(x_size, y_size)


class RatioAlpha(NamedTuple):
    ratio: Fraction
    alpha: Fraction
    coefficient: Fraction


def ratio_and_alpha(n: int, k: int, l: int, t: int, m: int) -> RatioAlpha:
    """Exact Y/X size ratio plus the tail weight alpha and the threshold coefficient.

    alpha(n, k, l) = (k(k-l+1)/2)^(k-l) / (n-3k)^(k-l), and the
    coefficient is sum_{t=1..k-l} (k/l) ((2t-1)/(4k))^t + l*alpha + l/k.
    All three are exact rationals; a zero X side or n <= 3k raises
    DegenerateInstanceError.
    """
    if not k > l >= 1:
        raise ValueError(f"requires k > l >= 1, got k={k}, l={l}")
    x_size, y_size = xy_family_sizes(n, k, l, t, m)
    if x_size == 0:
        raise DegenerateInstanceError(
            f"X side empty at n={n}, k={k}, l={l}, t={t}, m={m}"
        )
    if n <= 3 * k:
        raise DegenerateInstanceError(f"tail weight needs n > 3k, got n={n}, k={k}")
    ratio = Fraction(y_size, x_size)
    alpha = Fraction(k * (k - l + 1), 2) ** (k - l) / Fraction(n - 3 * k) ** (k - l)
    coefficient = (
        sum(
            (Fraction(k, l) * Fraction(2 * t_ - 1, 4 * k) ** t_ for t_ in range(1, k - l + 1)),
            start=Fraction(0),
        )
        + l * alpha
        + Fraction(l, k)
    )
    return RatioAlpha(ratio, alpha, coefficient)
