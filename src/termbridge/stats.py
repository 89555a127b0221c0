"""Statistical primitives: regularized gamma Q, Yates-corrected chi-square,
Bonferroni post-hoc pairs, and the one-sided rank-sum test.

The gamma survival function is computed directly (series expansion below
the a+1 knee, Lentz continued fraction above) so chi-square p-values do
not depend on an external stats library; relative error is well inside
1e-10 over the df/statistic ranges used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import DataError

_EPS = 1e-16
_MAX_ITER = 10_000
_TINY = 1e-300


def _gamma_p_series(a: float, x: float) -> float:
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a: float, x: float) -> float:
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Γ(a, x) / Γ(a)."""
    if a <= 0:
        raise ValueError(f"shape must be positive: {a}")
    if x < 0:
        raise ValueError(f"x must be non-negative: {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return min(max(1.0 - _gamma_p_series(a, x), 0.0), 1.0)
    return min(max(_gamma_q_contfrac(a, x), 0.0), 1.0)


def chi_square_survival(chi2: float, df: int) -> float:
    """P(X >= chi2) for a chi-square variate with df degrees of freedom."""
    if df < 1:
        raise ValueError(f"df must be >= 1: {df}")
    return gamma_q(df / 2.0, chi2 / 2.0)


@dataclass(frozen=True)
class StatResult:
    statistic: float
    df: int
    p_value: float


def chi_square_yates(table) -> StatResult:
    """Chi-square test of independence with Yates' correction.

    The per-cell correction max(|O - E| - 0.5, 0) is clamped at zero for
    any table size, so the correction can only shrink the statistic.
    Expected counts come from the row/column marginals.
    """
    rows = [list(map(float, r)) for r in table]
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows) or len(rows[0]) < 2:
        raise ValueError("contingency table must be at least 2x2 and rectangular")
    if any(v < 0 for r in rows for v in r):
        raise ValueError("counts must be non-negative")
    row_sums = [sum(r) for r in rows]
    col_sums = [sum(r[j] for r in rows) for j in range(len(rows[0]))]
    total = sum(row_sums)
    if any(s == 0 for s in row_sums) or any(s == 0 for s in col_sums):
        raise DataError("ZERO_MARGINAL", "a row or column marginal is zero")
    chi2 = 0.0
    for i, r in enumerate(rows):
        for j, observed in enumerate(r):
            expected = row_sums[i] * col_sums[j] / total
            adjusted = max(abs(observed - expected) - 0.5, 0.0)
            chi2 += adjusted * adjusted / expected
    df = (len(rows) - 1) * (len(rows[0]) - 1)
    return StatResult(statistic=chi2, df=df, p_value=chi_square_survival(chi2, df))


@dataclass(frozen=True)
class PairwiseTest:
    site_a: str
    site_b: str
    result: StatResult
    significant: bool


@dataclass(frozen=True)
class PairwiseResult:
    tests: tuple[PairwiseTest, ...]
    adjusted_alpha: float
    fraction_significant: float


def bonferroni_pairwise(site_tables, family_alpha: float = 0.05) -> PairwiseResult:
    """Yates 2x2 tests over every unordered site pair with Bonferroni control.

    ``site_tables`` is an iterable of (site_id, covered, uncovered).
    With fewer than two sites there are no pairs and nothing is flagged.
    """
    sites = list(site_tables)
    pairs = list(combinations(range(len(sites)), 2))
    if not pairs:
        return PairwiseResult(tests=(), adjusted_alpha=family_alpha, fraction_significant=0.0)
    adjusted = family_alpha / len(pairs)
    tests = []
    n_significant = 0
    for i, j in pairs:
        site_a, cov_a, unc_a = sites[i]
        site_b, cov_b, unc_b = sites[j]
        result = chi_square_yates([[cov_a, unc_a], [cov_b, unc_b]])
        significant = result.p_value < adjusted
        n_significant += significant
        tests.append(
            PairwiseTest(site_a=site_a, site_b=site_b, result=result, significant=significant)
        )
    return PairwiseResult(
        tests=tuple(tests),
        adjusted_alpha=adjusted,
        fraction_significant=n_significant / len(pairs),
    )


# --- rank-sum test ----------------------------------------------------------

EXACT_LIMIT = 12


def midranks(values) -> list[float]:
    """1-based ranks with ties replaced by their group average."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j + 2) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


@dataclass(frozen=True)
class RankSumResult:
    statistic: float  # rank sum of the case group
    p_value: float
    exact: bool


def wilcoxon_rank_sum_one_sided(cases, controls) -> RankSumResult:
    """One-sided rank-sum test, alternative: cases stochastically greater.

    Exact enumeration over all group assignments when the pooled size is
    at most 12; otherwise a normal approximation with tie-corrected
    variance and continuity correction.  Ties take midranks everywhere.
    """
    cases = list(cases)
    controls = list(controls)
    if not cases or not controls:
        raise DataError("EMPTY_GROUP", "both groups must be non-empty")
    n1, n2 = len(cases), len(controls)
    pooled = cases + controls
    n = n1 + n2
    ranks = midranks(pooled)
    w_observed = sum(ranks[:n1])

    if n <= EXACT_LIMIT:
        at_least = 0
        total = 0
        for subset in combinations(range(n), n1):
            total += 1
            if sum(ranks[i] for i in subset) >= w_observed:
                at_least += 1
        return RankSumResult(statistic=w_observed, p_value=at_least / total, exact=True)

    mean = n1 * (n + 1) / 2.0
    tie_counts = {}
    for v in pooled:
        tie_counts[v] = tie_counts.get(v, 0) + 1
    tie_term = sum(t ** 3 - t for t in tie_counts.values())
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        # All observations identical: every assignment gives the same rank
        # sum, so the observed statistic is never exceeded.
        return RankSumResult(statistic=w_observed, p_value=1.0, exact=False)
    z = (w_observed - mean - 0.5) / math.sqrt(variance)
    p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return RankSumResult(statistic=w_observed, p_value=p, exact=False)
