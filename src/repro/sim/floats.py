"""Exact repeated float addition.

``repeat_add(x, d, k)`` is ``k`` sequential ``x += d``, bit for bit.
When ``x`` and ``d`` are whole multiples of ``u = ulp(|x| + |k*d|)``,
every partial sum is a multiple of ``u`` no larger than ``|x| + |k*d|``,
so every one is a float and each add is exact: the result is
``x + k*d``.  (Were ``k*d`` or ``|x| + |k*d|`` not exact, their rounded
value would reach ``2**53 * u`` and its ulp would be coarser than ``u``.)
Otherwise the adds run one by one.

Lazy Shinjuku chains (:mod:`repro.policies.timesharing`) use it to
charge many quanta, and :meth:`repro.server.worker.Worker.laps` to
replay many quantum boundaries, with the floats the per-quantum path
would produce.  Their steps (whole microseconds, unit weights) pass the
test except where a full-mantissa total crosses a power of two.
"""

from __future__ import annotations

import math

_ulp = math.ulp


def repeat_add(x: float, d: float, k: int) -> float:
    """``x`` after ``k`` times ``x += d``: the same float, including its
    rounding at every step, for any ``k >= 0``."""
    if k <= 1:
        return x + d if k else x
    kd = k * d
    u = _ulp(abs(x) + abs(kd))
    if not x % u and not d % u:
        return x + kd
    for _ in range(k):
        x += d
    return x
