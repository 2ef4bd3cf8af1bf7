"""Statistical comparison utilities (Section 5.2.1.3 of the paper).

The paper compares Paradyn's RMA measurements against the Presta ``rma``
benchmark's own numbers and asks whether the differences are statistically
significant "by inspecting the confidence interval of the mean of the
differences of the two sets of measurements" -- a paired-difference t
confidence interval.  This module implements that test plus small helpers
for relative differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["PairedComparison", "paired_difference", "relative_difference"]

#: two-sided confidence of every interval this module reports
CONFIDENCE = 0.95


def _t_within(theta: float, df: int) -> float:
    """P(|T| < t) for Student's t with integer ``df``, in closed form over
    ``theta = atan(t / sqrt(df))`` (Abramowitz & Stegun 26.7.3 for odd df,
    26.7.4 for even df)."""
    c2 = math.cos(theta) ** 2
    odd = df % 2
    term = math.cos(theta) if odd else 1.0
    series = 0.0
    for k in range(1, (df - odd) // 2 + 1):
        series += term
        term *= c2 * (2 * k - 1 + odd) / (2 * k + odd)
    if odd:
        return 2.0 / math.pi * (theta + math.sin(theta) * series)
    return math.sin(theta) * series


def _t_critical(df: int) -> float:
    """The two-sided :data:`CONFIDENCE` Student-t critical value: bisect
    :func:`_t_within` over ``theta`` in ``[0, pi/2)``."""
    lo, hi = 0.0, math.pi / 2.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if _t_within(mid, df) < CONFIDENCE:
            lo = mid
        else:
            hi = mid
    return math.sqrt(df) * math.tan((lo + hi) / 2.0)


@dataclass(frozen=True)
class PairedComparison:
    """Result of a paired-difference confidence-interval test."""

    label: str
    n: int
    mean_a: float
    mean_b: float
    mean_diff: float
    ci_low: float
    ci_high: float

    @property
    def significant(self) -> bool:
        """True when the CI of the mean difference excludes zero."""
        return not (self.ci_low <= 0.0 <= self.ci_high)

    @property
    def relative_difference(self) -> float:
        """|mean difference| relative to the first series' mean."""
        if self.mean_a == 0.0:
            return 0.0
        return abs(self.mean_diff) / abs(self.mean_a)

    def describe(self) -> str:
        verdict = "SIGNIFICANT" if self.significant else "not significant"
        return (
            f"{self.label}: mean diff {self.mean_diff:+.4g} "
            f"(95% CI [{self.ci_low:.4g}, {self.ci_high:.4g}]), "
            f"relative {100.0 * self.relative_difference:.2f}% -> {verdict}"
        )


def paired_difference(
    a: Sequence[float],
    b: Sequence[float],
    *,
    label: str = "",
) -> PairedComparison:
    """Paired-difference t confidence interval for mean(a_i - b_i)."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if a_arr.shape != b_arr.shape or a_arr.ndim != 1:
        raise ValueError("paired comparison needs two equal-length 1-D series")
    n = a_arr.size
    if n < 2:
        raise ValueError("need at least 2 paired samples")
    diffs = a_arr - b_arr
    mean = float(diffs.mean())
    sd = float(diffs.std(ddof=1))
    half = _t_critical(n - 1) * sd / math.sqrt(n) if sd > 0 else 0.0
    return PairedComparison(
        label=label,
        n=n,
        mean_a=float(a_arr.mean()),
        mean_b=float(b_arr.mean()),
        mean_diff=mean,
        ci_low=mean - half,
        ci_high=mean + half,
    )


def relative_difference(a: float, b: float) -> float:
    """|a - b| / |a| (0 when a == 0)."""
    if a == 0.0:
        return 0.0 if b == 0.0 else float("inf")
    return abs(a - b) / abs(a)
