"""Independent checks of ddmr's outputs.

Nothing here calls ddmr: true transfer values come from ``numpy.polyval`` of
the hidden system, the reference model figures are the published ones for the
bundled RL record, and simulations are compared against ``scipy.signal``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.signal import lfilter, lfiltic

# Float-clean records recover values to about 1e-12; anything beyond this
# relative error is a wrong answer, not rounding.
VALUE_RTOL = 1e-6
# Recursion and lfilter sum in different orders; relative to the largest sample.
SIMULATE_RTOL = 1e-9

# Bundled RL record (@paper-rl), order 4: the paper's verdicts at the check
# points and its order-1 reduced model. Both carry four printed decimals.
RL_CHECK_POINTS = (0.0, 0.5, complex(2 ** -0.5, 2 ** -0.5), complex(2 ** -0.5, -(2 ** -0.5)), 1.0)
RL_CHECK_VERDICTS = (False, True, True, True, False)
RL_REDUCE_POINTS = (0.5, complex(2 ** -0.5, 2 ** -0.5))
RL_REFERENCE_VALUES = {0.5: -0.2985 + 0.0j, complex(2 ** -0.5, 2 ** -0.5): -0.0101 - 0.2792j}
RL_REFERENCE_MODEL = {"p0": -1.0790, "q0": 0.1045, "q1": 0.1367}
RL_TOL = 1e-3
RL_EXIT = {"check": 2, "reduce": 0}  # check finds non-informative points


def expected_order(points, system_order: int) -> int:
    """Generic minimal order of a real interpolant through values at ``points``.

    A real point gives one real constraint and a non-real one (with its
    conjugate) two; an order-r interpolant has 2r + 1 free coefficients, and
    the hidden system itself bounds the order from above.
    """
    constraints = sum(1 if complex(s).imag == 0 else 2 for s in points)
    return min(system_order, math.ceil((constraints - 1) / 2))


def model_values(p: np.ndarray, q: np.ndarray, points) -> np.ndarray:
    """Transfer values of ddmr's shift-form model, by the benchmark's polyval."""
    den = np.concatenate([[1.0], np.asarray(p, dtype=float)[::-1]])
    return np.polyval(np.asarray(q, dtype=float)[::-1], np.asarray(points, dtype=complex)) / np.polyval(
        den, np.asarray(points, dtype=complex))


def rl_model_ok(p, q) -> bool:
    ref = RL_REFERENCE_MODEL
    return (len(p) == 1 and len(q) == 2 and abs(p[0] - ref["p0"]) <= RL_TOL
            and abs(q[0] - ref["q0"]) <= RL_TOL and abs(q[1] - ref["q1"]) <= RL_TOL)


def simulate_reference(p, q, u: np.ndarray) -> np.ndarray:
    """Response of the shift-form model from zero initial outputs.

    Samples ``0 .. n-1`` are the initial outputs; from ``n`` on, ``lfilter``
    runs the same difference equation with its state set from those samples.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = p.size
    if n == 0:
        return q[0] * u
    a = np.concatenate([[1.0], p[::-1]])
    b = q[::-1]
    y = np.zeros(u.size)
    with np.errstate(all="ignore"):
        zi = lfiltic(b, a, y[:n][::-1], u[:n][::-1])
        y[n:] = lfilter(b, a, u[n:], zi=zi)[0]
    return y


def simulate_ok(y: np.ndarray, ref: np.ndarray) -> bool:
    scale = float(np.max(np.abs(ref)))
    return y.shape == ref.shape and bool(np.max(np.abs(y - ref)) <= SIMULATE_RTOL * max(1.0, scale))


@dataclass(frozen=True)
class Truth:
    """Known transfer values and the tolerance a recovered value must meet."""

    value: Callable[[np.ndarray], np.ndarray]
    tol: float

    def close(self, m: complex, true: complex) -> bool:
        return abs(m - true) <= self.tol * max(1.0, abs(true))


def rl_reference_value(points) -> np.ndarray:
    """Published RL values at the reduce points and their conjugates, NaN elsewhere."""
    refs = dict(RL_REFERENCE_VALUES)
    refs.update({complex(s).conjugate(): complex(m).conjugate() for s, m in RL_REFERENCE_VALUES.items()})
    out = []
    for s in np.atleast_1d(np.asarray(points, dtype=complex)):
        hit = [m for ref, m in refs.items() if abs(ref - s) < 1e-12]
        out.append(hit[0] if hit else complex(np.nan, np.nan))
    return np.array(out)


RL_TRUTH = Truth(rl_reference_value, RL_TOL)
