"""Seeded inputs for the benchmark, built without calling ddmr.

Hidden systems, records, point grids and CSV files all come from this module.
White-noise records are produced by ``scipy.signal.lfilter`` on the hidden
system's coefficients, and single-sine records by its value at the sine's
frequency, so a change to ``ddmr.simulate`` shows only where the benchmark
times ``simulate`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

# Grid of the grid-sweep workload: 16 radii x 16 angles in the upper half of
# the annulus 0.3 <= |sigma| <= 1.5. Radius 1.0 and the angle SINE_OMEGA are on
# the grid, so e^{i omega} is one of its points. No point is real, so every
# point has a distinct conjugate partner after closure.
GRID_RADII = 0.3 * 5.0 ** (np.arange(16) / 15)
GRID_RADII[np.argmin(np.abs(GRID_RADII - 1.0))] = 1.0
GRID_ANGLES = np.pi * (np.arange(16) + 0.5) / 16
SINE_OMEGA = float(GRID_ANGLES[5])

# The eight points of the long-record workload, upper half of |sigma| = 0.95.
LONG_POINTS = 0.95 * np.exp(1j * np.pi * (np.arange(8) + 0.5) / 8)


@dataclass(frozen=True)
class HiddenSystem:
    """Real-coefficient system ``Q(z)/P(z)``, coefficients in descending powers.

    ``den`` is monic with degree ``order``; ``num`` has ``order + 1`` entries.
    The difference equation is ``y[t] + den[1] y[t-1] + ... = num[0] u[t] + ...``,
    which is ddmr's shift form with ``p = den[:0:-1]`` and ``q = num[::-1]``.
    """

    num: np.ndarray
    den: np.ndarray

    @property
    def order(self) -> int:
        return self.den.size - 1

    def value(self, sigma) -> np.ndarray:
        """True transfer value at ``sigma`` (oracle; shares no code with ddmr)."""
        sigma = np.asarray(sigma, dtype=complex)
        return np.polyval(self.num, sigma) / np.polyval(self.den, sigma)

    def respond(self, u: np.ndarray) -> np.ndarray:
        """Output from rest, ``y[t] = 0`` for ``t < 0``."""
        return lfilter(self.num, self.den, u)


def hidden_system(rng: np.random.Generator, order: int, r_lo: float, r_hi: float) -> HiddenSystem:
    """Stable even-order system with poles in ``r_lo <= |z| <= r_hi``.

    The upper half-plane is split into ``order / 2`` equal sectors, and each
    conjugate pole pair takes an angle in the middle 60% of its own sector.
    Zeros come from a normal numerator that is redrawn until it stays away
    from the poles. Well-separated poles and zeros keep the system's order
    plain in its data, so every rank decision the oracles expect sits far
    from the rank cutoff.
    """
    if order % 2:
        raise ValueError("order must be even")
    pairs = order // 2
    mods = rng.uniform(r_lo, r_hi, pairs)
    angs = (np.arange(pairs) + rng.uniform(0.2, 0.8, pairs)) * np.pi / pairs
    poles = mods * np.exp(1j * angs)
    den = np.real(np.poly(np.concatenate([poles, poles.conj()])))
    while True:
        num = rng.standard_normal(order + 1)
        if np.min(np.abs(np.polyval(num, poles))) > 0.1 * np.max(np.abs(num)):
            return HiddenSystem(num, den)


@dataclass(frozen=True)
class Record:
    """Input-output samples; ``u`` and ``y`` share length T + 1."""

    u: np.ndarray
    y: np.ndarray


def white_record(rng: np.random.Generator, system: HiddenSystem, T: int) -> Record:
    u = rng.standard_normal(T + 1)
    return Record(u, system.respond(u))


def sine_record(rng: np.random.Generator, system: HiddenSystem, T: int, omega: float) -> Record:
    """Single sine at ``omega`` with a seeded phase, and the system's steady-state response.

    The output carries no start-up transient, so both signals are sinusoids
    at ``omega`` and the record is informative exactly at e^{+-i omega}. A
    response from rest would add the system's free modes to the output, and
    they can make the record informative at further points.
    """
    t = np.arange(T + 1, dtype=float)
    phase = omega * t + rng.uniform(0.0, 2.0 * np.pi)
    return Record(np.cos(phase), np.real(system.value(np.exp(1j * omega)) * np.exp(1j * phase)))


def grid_points() -> np.ndarray:
    return (GRID_RADII[:, None] * np.exp(1j * GRID_ANGLES[None, :])).ravel()


def write_csv(record: Record, path: Path) -> None:
    """``t,u,y`` rows in shortest round-trip float form, so values survive exactly."""
    lines = ["t,u,y"]
    lines += [f"{t},{u!r},{y!r}" for t, (u, y) in enumerate(zip(record.u.tolist(), record.y.tolist()))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
