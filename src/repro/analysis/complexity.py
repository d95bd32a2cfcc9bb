"""Growth-exponent fit for the paper's complexity claims.

Theorem 5 (Algorithm 1's ``O(n^2)`` messages) and Appendix B (the gaps of
Algorithms 3 and 6) are claims about how a count grows with ``n``.  The
counts come from :func:`repro.experiments.execute_run` over a sweep of
system sizes (``tests/test_paper_claims.py``); this module fits their shape.

The fit recovers exact power laws (a quadratic count fits to slope 2, a
cubic to slope 3):

>>> round(fit_growth_exponent([2, 4, 8], [4, 16, 64]), 6)
2.0
>>> round(fit_growth_exponent([10, 100], [1000, 1000000]), 6)
3.0

One size is no growth:

>>> fit_growth_exponent([4, 4], [16, 16])
Traceback (most recent call last):
    ...
ValueError: all sizes are identical; cannot fit a growth exponent
"""

from __future__ import annotations

import math
from typing import Sequence


def fit_growth_exponent(sizes: Sequence[int], counts: Sequence[float]) -> float:
    """Least-squares slope of ``log(count)`` against ``log(n)``.

    An exponent near 2 indicates quadratic growth, near 3 cubic, and so on.
    """
    if len(sizes) != len(counts) or len(sizes) < 2:
        raise ValueError("need at least two (size, count) points with matching lengths")
    xs = [math.log(size) for size in sizes]
    ys = [math.log(max(count, 1)) for count in counts]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        raise ValueError("all sizes are identical; cannot fit a growth exponent")
    return numerator / denominator
