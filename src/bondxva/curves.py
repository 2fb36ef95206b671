"""Piecewise-constant term structures and the survival / discount primitives.

Everything downstream (bond pricing, calibration, XVA integrals) is built on
three curves per legal entity: an OIS (collateral) rate curve, a default
intensity curve and a bond funding basis curve. All of them share the same
representation: a right-continuous piecewise-constant function of the year
fraction, flat beyond the last node. Integrals are evaluated in closed form
segment by segment, never by numerical quadrature, so curve arithmetic is
exact to rounding.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

__all__ = [
    "PiecewiseCurve",
    "CounterpartyProfile",
    "discount_factor",
    "survival_probability",
    "liquidity_adjusted_survival",
    "bond_implied_hazard",
]


@dataclass(frozen=True)
class PiecewiseCurve:
    """Right-continuous piecewise-constant curve with flat extrapolation.

    ``values[i]`` applies on ``[times[i], times[i+1])`` and ``values[-1]``
    extends to infinity. The first node must sit at time 0 so the curve is
    defined on all of ``[0, inf)``.

    Parameters
    ----------
    times : sequence of float
        Strictly increasing node times (year fractions), ``times[0] == 0``.
    values : sequence of float
        Rate per annum on each segment, same length as ``times``.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __init__(self, times, values):
        times = tuple(float(t) for t in times)
        values = tuple(float(v) for v in values)
        if len(times) == 0:
            raise ValueError("curve needs at least one node")
        if not all(map(math.isfinite, times + values)):
            bad = "times" if not all(map(math.isfinite, times)) else "values"
            raise ValueError(f"PiecewiseCurve.{bad} is non-finite: {times}, {values}")
        if len(times) != len(values):
            raise ValueError(
                f"times and values length mismatch: {len(times)} vs {len(values)}"
            )
        if times[0] != 0.0:
            raise ValueError(f"first node must be at time 0, got {times[0]}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("node times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        # cumulative integral from 0 to each node, summed in np.cumsum's order
        # so that the scalar and vectorized lookups agree bit for bit
        steps = (v * (b - a) for a, b, v in zip(times, times[1:], values))
        object.__setattr__(self, "_node_integrals", (0.0, *accumulate(steps)))

    # the arrays of the vectorized lookups, built on first use
    @cached_property
    def _t(self) -> np.ndarray:
        return np.array(self.times)

    @cached_property
    def _v(self) -> np.ndarray:
        return np.array(self.values)

    @cached_property
    def _cum(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self._v[:-1] * np.diff(self._t))))

    @classmethod
    def flat(cls, value: float) -> "PiecewiseCurve":
        return cls((0.0,), (value,))

    def value_at(self, t: float) -> float:
        """Curve level at time t (right-continuous lookup)."""
        if not t >= 0:
            raise ValueError(f"negative time or NaN: {t}")
        return self.values[bisect_right(self.times, t) - 1]

    def values_at(self, t) -> np.ndarray:
        """Vectorized right-continuous lookup."""
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0):
            raise ValueError("negative time or NaN in lookup")
        idx = np.searchsorted(self._t, t, side="right") - 1
        return self._v[idx]

    def integral_from_zero(self, t) -> np.ndarray:
        """Exact integral of the curve over [0, t], vectorized in t."""
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0):
            raise ValueError("negative time or NaN in integral")
        idx = np.searchsorted(self._t, t, side="right") - 1
        return self._cum[idx] + self._v[idx] * (t - self._t[idx])

    def _integral_to(self, t: float) -> float:
        # integral_from_zero on Python floats, the same operations in order
        if not t >= 0:
            raise ValueError("negative time or NaN in integral")
        i = bisect_right(self.times, t) - 1
        return self._node_integrals[i] + self.values[i] * (t - self.times[i])

    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b]. Requires 0 <= a <= b."""
        if b < a:
            raise ValueError(f"integration bounds out of order: [{a}, {b}]")
        return float(self._integral_to(b) - self._integral_to(a))

    def shifted(self, bump: float) -> "PiecewiseCurve":
        """Parallel shift of every segment by ``bump``."""
        return PiecewiseCurve(self.times, tuple(v + bump for v in self.values))

    def __add__(self, other: "PiecewiseCurve") -> "PiecewiseCurve":
        """Pointwise sum, on the union of both node grids."""
        grid = sorted(set(self.times) | set(other.times))
        vals = [self.value_at(t) + other.value_at(t) for t in grid]
        return PiecewiseCurve(grid, vals)

    def scaled(self, factor: float) -> "PiecewiseCurve":
        return PiecewiseCurve(self.times, tuple(v * factor for v in self.values))


@dataclass(frozen=True)
class CounterpartyProfile:
    """Credit and funding description of one legal entity.

    recovery
        Fraction of the close-out claim recovered at default, in [0, 1].
    hazard
        CDS-implied default intensity curve, nonnegative. The bond pricer,
        the calibrator and the "pde" backend read it; the "mc" backend does
        not, its defaults follow the simulated spread paths instead.
    basis
        Bond-CDS basis curve; may be negative (the engine must not reject
        negative bases).
    """

    recovery: float
    hazard: PiecewiseCurve
    basis: PiecewiseCurve = field(default_factory=lambda: PiecewiseCurve.flat(0.0))

    def __post_init__(self):
        if not 0.0 <= self.recovery <= 1.0:
            raise ValueError(f"recovery {self.recovery} outside [0, 1]")
        if any(v < 0 for v in self.hazard.values):
            raise ValueError("hazard values must be nonnegative")

    @classmethod
    def default_free(cls) -> "CounterpartyProfile":
        """An entity that never defaults and funds flat at OIS."""
        return cls(0.0, PiecewiseCurve.flat(0.0), PiecewiseCurve.flat(0.0))

    def short_spread(self, t: float) -> float:
        """Instantaneous CDS spread pi = lambda * (1 - R) at time t."""
        return self.hazard.value_at(t) * (1.0 - self.recovery)


def _check_ordering(t: float, s: float) -> None:
    if not 0.0 <= t <= s:
        raise ValueError(f"times out of order: need 0 <= t <= s, got t={t}, s={s}")


def discount_factor(curve: PiecewiseCurve, t: float, s: float) -> float:
    """exp(-integral of the rate over [t, s])."""
    _check_ordering(t, s)
    return math.exp(-curve.integral(t, s))


def survival_probability(hazard: PiecewiseCurve, t: float, s: float) -> float:
    """Probability of no default in [t, s] under the intensity model."""
    _check_ordering(t, s)
    return math.exp(-hazard.integral(t, s))


def liquidity_adjusted_survival(
    profile: CounterpartyProfile, t: float, s: float
) -> float:
    """exp(-integral of (hazard + basis)).

    Plays the role of a survival probability in the bond pricing formulas but
    may exceed 1 when the basis is sufficiently negative.
    """
    _check_ordering(t, s)
    return math.exp(-(profile.hazard.integral(t, s) + profile.basis.integral(t, s)))


def bond_implied_hazard(profile: CounterpartyProfile) -> PiecewiseCurve:
    """Intensity backed out of the bond curve rather than the CDS curve.

    Returns the curve lambda_bar = lambda + gamma / (1 - R): the intensity
    whose loss-given-default spread lambda_bar * (1 - R) reproduces the full
    funding spread pi + gamma of the entity's bonds.
    """
    if profile.recovery >= 1.0:
        raise ValueError("bond-implied hazard undefined at recovery = 1")
    scale = 1.0 / (1.0 - profile.recovery)
    return profile.hazard + profile.basis.scaled(scale)
