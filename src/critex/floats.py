"""One rule for adding floats, so that every Python gives the same bits.

From CPython 3.12, the built-in ``sum()`` adds floats with compensation
(Neumaier), while 3.10 and 3.11 add them left to right.  Probabilities,
their totals and evaluation averages must not depend on the interpreter,
so every float sum of the package goes through :func:`left_sum`.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``((0 + v0) + v1) + ...``: the values added left to right, uncompensated."""

    return reduce(add, values, 0)
