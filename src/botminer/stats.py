"""Order statistics, empirical CDFs and the two-sample Kolmogorov-Smirnov test.

Everything here is deliberately dependency-free so results are identical on
any platform: quantiles are computed from explicit order statistics and the
KS p-value uses the classic asymptotic series.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, Mapping, NamedTuple

__all__ = [
    "NEAREST_RANK",
    "LINEAR",
    "quantile",
    "Ecdf",
    "ecdf",
    "KsResult",
    "ks_two_sample",
]

# quantile interpolation methods
NEAREST_RANK = "nearest-rank"
LINEAR = "linear"

# truncation threshold for the Kolmogorov series
_KS_SERIES_EPS = 1e-12
_KS_SERIES_MAX_TERMS = 1_000_000
# below this lambda the alternating series needs ever more terms (and stops
# short of its limit below about 1e-5); the complementary series needs two
_KS_SMALL_LAMBDA = 0.5


def quantile(values: Iterable[float], q: float, method: str = NEAREST_RANK) -> float:
    """Return the q-quantile of *values*.

    ``nearest-rank`` picks the ceil(q*n)-th order statistic (1-based), so the
    result is always an element of the sample.  ``linear`` interpolates
    between the two adjacent order statistics (the textbook/R-7 definition
    used for quartiles).
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("quantile of empty sequence")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q!r}")
    if method == NEAREST_RANK:
        rank = math.ceil(q * n)  # 1-based; q > 0 guarantees rank >= 1
        return data[rank - 1]
    if method == LINEAR:
        pos = (n - 1) * q
        lo = math.floor(pos)
        frac = pos - lo
        if frac == 0.0 or lo + 1 >= n:
            return float(data[lo])
        return data[lo] + frac * (data[lo + 1] - data[lo])
    raise ValueError(f"unknown quantile method {method!r}")


class Ecdf(NamedTuple):
    """Right-continuous empirical CDF of a fixed sample.

    ``values`` are the sample's distinct values in increasing order and
    ``cumulative[i]`` the number of sample points <= ``values[i]``.
    """

    values: tuple
    cumulative: tuple
    n: int

    def evaluate(self, x: float) -> float:
        """F(x) = (# sample points <= x) / n."""
        i = bisect_right(self.values, x)
        return self.cumulative[i - 1] / self.n if i else 0.0

    def points(self) -> list[tuple[float, float]]:
        """Distinct (x, F(x)) pairs in increasing x order."""
        return [(x, c / self.n) for x, c in zip(self.values, self.cumulative)]


def ecdf(counts: Mapping[float, int]) -> Ecdf:
    """Build the empirical CDF of a sample given as value -> count.

    An empty sample has no points: ``Ecdf((), (), 0)``.
    """
    items = sorted(counts.items())
    cumulative = tuple(accumulate(c for _, c in items))
    return Ecdf(tuple(x for x, _ in items), cumulative, cumulative[-1] if cumulative else 0)


class KsResult(NamedTuple):
    """Two-sample KS statistic with its asymptotic p-value."""

    d_statistic: float
    p_value: float
    n1: int
    n2: int


def _kolmogorov_sf(lam: float) -> float:
    # Q(lambda) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lambda^2).
    # At lambda == 0 the series never converges numerically but the limit is 1.
    if lam <= 0.0:
        return 1.0
    if lam < _KS_SMALL_LAMBDA:
        # Q(lambda) = 1 - sqrt(2 pi)/lambda * sum_{k>=1} exp(-(2k-1)^2 pi^2 / (8 lambda^2)).
        # Here pi^2 / (8 lambda^2) > 4.9, so the terms from k = 3 on are below
        # exp(-123), and below lambda = 0.04 even the first one is 0.0.
        r = math.pi / lam
        x = r * r / 8.0
        tail = math.exp(-x) + math.exp(-9.0 * x)
        return 1.0 - math.sqrt(2.0 * math.pi) / lam * tail if tail else 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, _KS_SERIES_MAX_TERMS + 1):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < _KS_SERIES_EPS:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(a: Mapping[float, int], b: Mapping[float, int]) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test on samples given as value -> count.

    D is the exact supremum of |F_a - F_b| over the pooled sample points;
    the p-value is the asymptotic Kolmogorov distribution evaluated at
    D * sqrt(n1*n2/(n1+n2)).
    """
    if not a or not b:
        raise ValueError("ks_two_sample requires two non-empty samples")
    fa, fb = ecdf(a), ecdf(b)
    d = max(abs(fa.evaluate(x) - fb.evaluate(x)) for x in set(fa.values).union(fb.values))
    n1, n2 = fa.n, fb.n
    lam = d * math.sqrt(n1 * n2 / (n1 + n2))
    return KsResult(d, _kolmogorov_sf(lam), n1, n2)
