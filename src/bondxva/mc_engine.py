"""Risk-neutral path simulation and exposure profiles.

Three correlated factors are simulated: a lognormal underlying S and two
arithmetic Brownian short CDS spreads (counterparty and bank), floored at
zero. Default times are doubly stochastic on top of the spread paths; the
valuation itself (``xva_engine.run_xva``) draws none and integrates each
name's intensity along its spread path instead.

Reproducibility contract: every block of 4096 paths derives its own
counter-based Philox stream from (master seed, stream id, block index), so
results are bit-identical for a fixed configuration no matter how many
workers execute the blocks or in which order they finish.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .curves import PiecewiseCurve
from .instruments import CollateralSpec, collateral_amount

__all__ = [
    "ModelDynamics",
    "PathSet",
    "ExposureProfile",
    "simulate_paths",
    "sample_default_times",
    "exposure_profile",
    "swap_roles",
]

BLOCK_SIZE = 4096
# paths whose normals simulate_paths draws and correlates at once
_DRAW_PATHS = 512
_DIFFUSION_STREAM = 0
_DEFAULT_STREAM_BASE = 1
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ModelDynamics:
    """Parameters of the joint (S, pi_C, pi_B) diffusion.

    The underlying grows at rate - dividend with lognormal volatility vol_s;
    the spreads are arithmetic Brownian with the given risk-neutral drifts
    (any market price of credit risk is already absorbed into them) and
    absolute volatilities. Correlations refer to the driving Brownian
    motions.
    """

    s0: float
    rate: float = 0.0
    dividend: float = 0.0
    vol_s: float = 0.0
    pi0_c: float = 0.0
    pi0_b: float = 0.0
    drift_c: float = 0.0
    drift_b: float = 0.0
    vol_c: float = 0.0
    vol_b: float = 0.0
    rho_sc: float = 0.0
    rho_sb: float = 0.0
    rho_cb: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"ModelDynamics.{field.name} is non-finite: {value!r}")
        if self.s0 <= 0:
            raise ValueError("s0 must be positive")
        for name in ("vol_s", "vol_c", "vol_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
            # the simulation's drift and variance use the square
            if not math.isfinite(getattr(self, name) * getattr(self, name)):
                raise ValueError(
                    f"ModelDynamics.{name} is {getattr(self, name)!r}: its square overflows"
                )
        for name in ("pi0_c", "pi0_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("rho_sc", "rho_sb", "rho_cb"):
            if not -1.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} outside [-1, 1]")
        # positive semi-definiteness of the correlation matrix, checked via
        # its spectral factorization (Cholesky would reject the PSD boundary)
        object.__setattr__(self, "_factor", _correlation_factor(self.correlation()))

    def correlation(self) -> np.ndarray:
        return np.array(
            [
                [1.0, self.rho_sc, self.rho_sb],
                [self.rho_sc, 1.0, self.rho_cb],
                [self.rho_sb, self.rho_cb, 1.0],
            ]
        )

    def swapped_roles(self) -> "ModelDynamics":
        """Counterparty and bank exchanged (used by symmetry checks)."""
        return replace(
            self,
            pi0_c=self.pi0_b, pi0_b=self.pi0_c,
            drift_c=self.drift_b, drift_b=self.drift_c,
            vol_c=self.vol_b, vol_b=self.vol_c,
            rho_sc=self.rho_sb, rho_sb=self.rho_sc,
        )


def _correlation_factor(corr: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(corr)
    if eigvals.min() < -1e-10:
        raise ValueError(
            f"correlation matrix is not positive semi-definite "
            f"(min eigenvalue {eigvals.min():.3e})"
        )
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        return eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None)))


@dataclass(frozen=True, eq=False)
class PathSet:
    """Simulated trajectories on a uniform grid, plus sampled default times.

    times must run from 0 in equal steps, as np.linspace(0, horizon,
    n_steps + 1) makes them (ValueError naming PathSet.times otherwise):
    the default clock and a cure window read the one step times[1] - times[0].
    s, pi_c and pi_b are shaped (n_paths, n_steps + 1). simulate_paths
    stores them time-major, as the transposes of C-order (n_steps + 1,
    n_paths) buffers, so that the slice of every path at one time, s[:, k],
    is contiguous; a row-major PathSet gives the same numbers, only more
    slowly. tau_c / tau_b are +inf on paths that do not default before the
    crossing of their exponential clock within the horizon, and None until
    sampled. clock_columns names the columns of each block's exponential
    draws that drive (tau_c, tau_b), so that a role swap hands each name its
    own clock. The default times serve the estimators on given default
    times (``cva``, ``dva``, ``ead_split_adjustment``, the alive mask of
    ``cfva``, ``dfva`` and ``exposure_profile``); ``run_xva`` ignores them.
    Treat all arrays as read-only.
    """

    times: np.ndarray
    s: np.ndarray
    pi_c: np.ndarray
    pi_b: np.ndarray
    seed: int
    tau_c: np.ndarray | None = None
    tau_b: np.ndarray | None = None
    clock_columns: tuple[int, int] = (0, 1)
    dyn: ModelDynamics | None = None

    def __post_init__(self):
        # the default clock and the cure-window ring read one step, times[1] - times[0]
        times = np.asarray(self.times, dtype=float)
        steps = np.diff(times)
        if not (len(steps) and times[0] == 0.0 and times[-1] > 0
                and np.allclose(steps, times[-1] / len(steps), rtol=1e-9, atol=0.0)):
            got = (f"t_0 = {times[0]:.6g} and steps from {steps.min():.6g} to {steps.max():.6g}"
                   if len(steps) else f"{len(times)} time(s)")
            raise ValueError(
                "PathSet.times must run from 0 in equal steps, as "
                f"np.linspace(0, horizon, n_steps + 1) does; got {got}"
            )

    @property
    def n_paths(self) -> int:
        return self.s.shape[0]

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def alive(self, t: float) -> np.ndarray:
        """Indicator of neither name having defaulted by time t."""
        out = np.ones(self.n_paths, dtype=bool)
        if self.tau_c is not None:
            out &= self.tau_c > t
        if self.tau_b is not None:
            out &= self.tau_b > t
        return out


def _philox_generator(seed: int, stream: int, block: int) -> np.random.Generator:
    key = (seed & _MASK64) | ((((stream << 32) | block) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _block_ranges(n_paths: int):
    for block, start in enumerate(range(0, n_paths, BLOCK_SIZE)):
        yield block, start, min(start + BLOCK_SIZE, n_paths)


def simulate_paths(
    dyn: ModelDynamics,
    horizon: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    n_workers: int = 1,
) -> PathSet:
    """Exact lognormal steps for S, floored arithmetic Brownian spreads.

    The three normals per step are correlated through the factorization of
    the correlation matrix. Spread paths are clipped at zero after each
    step: the raw SDE admits negative spreads but negative intensities are
    unusable for default sampling, so the floor is part of the model here.
    horizon must be finite and positive.
    """
    if n_steps < 1 or n_paths < 1:
        raise ValueError("n_steps and n_paths must be at least 1")
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    # a NaN horizon fails every comparison, so test for the domain itself
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    times = np.linspace(0.0, horizon, n_steps + 1)
    dt = horizon / n_steps
    sqrt_dt = math.sqrt(dt)
    factor = dyn._factor
    s_drift = (dyn.rate - dyn.dividend - 0.5 * dyn.vol_s**2) * dt

    # time-major storage: row k holds every path at times[k]
    s = np.empty((n_steps + 1, n_paths))
    pi_c = np.empty((n_steps + 1, n_paths))
    pi_b = np.empty((n_steps + 1, n_paths))

    def fill_block(block: int, start: int, stop: int) -> None:
        gen = _philox_generator(seed, _DIFFUSION_STREAM, block)
        s_blk, c_blk, b_blk = s[:, start:stop], pi_c[:, start:stop], pi_b[:, start:stop]
        # each block's grids are filled one contiguous row (grid time) at a
        # time; row k + 1 holds step k's scaled normal (for S its growth
        # factor) until the step is applied. The normals are drawn and
        # correlated a few hundred paths at a time: the same Philox stream,
        # without a (block, n_steps, 3) array held twice.
        for lo in range(0, stop - start, _DRAW_PATHS):
            hi = min(lo + _DRAW_PATHS, stop - start)
            z = gen.standard_normal((hi - lo, n_steps, 3)) @ factor.T
            for blk, vol, col in ((s_blk, dyn.vol_s, 0), (c_blk, dyn.vol_c, 1),
                                  (b_blk, dyn.vol_b, 2)):
                np.multiply(z[:, :, col].T, vol * sqrt_dt, out=blk[1:, lo:hi])
        s_blk[0] = dyn.s0
        np.add(s_blk[1:], s_drift, out=s_blk[1:])
        np.exp(s_blk[1:], out=s_blk[1:])
        for k in range(n_steps):
            np.multiply(s_blk[k], s_blk[k + 1], out=s_blk[k + 1])
        for blk, pi0, drift in ((c_blk, dyn.pi0_c, dyn.drift_c), (b_blk, dyn.pi0_b, dyn.drift_b)):
            blk[0] = pi0
            for k in range(n_steps):
                # (pi_k + drift dt) + vol sqrt(dt) z_k, floored at zero
                np.add(blk[k] + drift * dt, blk[k + 1], out=blk[k + 1])
                np.maximum(blk[k + 1], 0.0, out=blk[k + 1])

    blocks = list(_block_ranges(n_paths))
    if n_workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(lambda args: fill_block(*args), blocks))
    else:
        for args in blocks:
            fill_block(*args)

    return PathSet(times=times, s=s.T, pi_c=pi_c.T, pi_b=pi_b.T, seed=seed, dyn=dyn)


def _sample_clock(
    intensity: np.ndarray, times: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """First passage of the integrated intensity over an exponential draw.

    intensity is time-major, (n_times, n_paths). Left-endpoint accumulation
    on the grid; the crossing is interpolated inside the step, which is
    exact while the intensity is constant over each step.
    """
    dt = times[1] - times[0]
    n_steps = len(times) - 1
    steps = intensity[:-1] * dt
    cum = np.zeros(intensity.shape)
    for k in range(n_steps):  # one contiguous row at a time, in time order
        np.add(cum[k], steps[k], out=cum[k + 1])
    last_below = (cum < draws).sum(axis=0) - 1
    tau = np.full(intensity.shape[1], np.inf)
    crossed = last_below < n_steps
    idx = last_below[crossed]
    cols = np.nonzero(crossed)[0]
    lam = intensity[idx, cols]
    tau[cols] = times[idx] + (draws[cols] - cum[idx, cols]) / lam
    return tau


def sample_default_times(
    paths: PathSet,
    recovery_c: float,
    recovery_b: float,
    seed_offset: int = 0,
    basis_c: PiecewiseCurve | None = None,
    basis_b: PiecewiseCurve | None = None,
) -> PathSet:
    """Doubly stochastic default times for both names.

    Intensities are pi / (1 - R) along each spread path. When a basis curve
    is supplied the bond-implied intensity (pi + gamma) / (1 - R) is used
    instead (floored at zero, since a negative basis can push it negative).
    The exponential clocks are drawn from a dedicated stream so the same
    trajectories can be reused with fresh default draws via seed_offset.
    The intensities are formed one 4096-path block at a time, next to the
    block's draws. Each recovery must be finite and in [0, 1); a ValueError
    names the one that is not.
    """
    for name, recovery in (("recovery_c", recovery_c), ("recovery_b", recovery_b)):
        # a NaN recovery fails every comparison, so test for the domain itself
        if not (math.isfinite(recovery) and 0.0 <= recovery < 1.0):
            raise ValueError(f"{name} must be finite, >= 0 and below 1, got {recovery!r}")
    col_c, col_b = paths.clock_columns
    names = []  # per name: its spread paths, recovery, basis row and clock column
    for pi, recovery, basis, col in (
        (paths.pi_c, recovery_c, basis_c, col_c), (paths.pi_b, recovery_b, basis_b, col_b)
    ):
        row = None if basis is None else basis.values_at(paths.times)[:, None]
        names.append((pi, recovery, row, col))

    def intensity(pi, recovery, row):  # one block's, time-major
        lam = pi.T if row is None else pi.T + row
        return np.maximum(lam, 0.0) / (1.0 - recovery)

    tau_c = np.empty(paths.n_paths)
    tau_b = np.empty(paths.n_paths)
    for block, start, stop in _block_ranges(paths.n_paths):
        gen = _philox_generator(
            paths.seed, _DEFAULT_STREAM_BASE + seed_offset, block
        )
        draws = gen.standard_exponential((stop - start, 2))
        for tau, (pi, recovery, row, col) in zip((tau_c, tau_b), names):
            tau[start:stop] = _sample_clock(
                intensity(pi[start:stop], recovery, row), paths.times, draws[:, col]
            )
    return replace(paths, tau_c=tau_c, tau_b=tau_b)


def swap_roles(paths: PathSet) -> PathSet:
    """The same simulated world seen from the other side of the trade."""
    return replace(
        paths, pi_c=paths.pi_b, pi_b=paths.pi_c, tau_c=paths.tau_b, tau_b=paths.tau_c,
        clock_columns=paths.clock_columns[::-1],
        dyn=None if paths.dyn is None else paths.dyn.swapped_roles(),
    )


@dataclass(frozen=True, eq=False)
class ExposureProfile:
    """Expected exposure term structures with standard errors.

    At each of the times, epe and ene are the expected positive and negative
    parts of the gap V - C between the trade's value and its collateral, a
    name's default stopping the exposure: every backend of ``run_xva``
    weights each state by the joint survival probability
    exp(-(Lambda_C + Lambda_B)) to that time, on Monte Carlo along each
    path, while ``exposure_profile`` on given default times counts the
    paths that have defaulted as zero. The discounted columns are the same
    times D(0, t), and the se_ columns are Monte Carlo standard errors, zero
    where the profile is computed exactly. Build one with
    ``from_expectations``.
    """

    times: np.ndarray
    epe: np.ndarray
    ene: np.ndarray
    epe_discounted: np.ndarray
    ene_discounted: np.ndarray
    se_epe: np.ndarray
    se_ene: np.ndarray
    se_epe_discounted: np.ndarray
    se_ene_discounted: np.ndarray

    @classmethod
    def from_expectations(cls, times, disc, epe, ene, se_epe=None, se_ene=None):
        """The profile of epe and ene at the times, with discount factors disc
        and standard errors se_epe and se_ene (zero when left out)."""
        if se_epe is None:
            se_epe = np.zeros_like(epe)
        if se_ene is None:
            se_ene = np.zeros_like(ene)
        return cls(
            times=np.array(times, dtype=float),
            epe=epe,
            ene=ene,
            epe_discounted=disc * epe,
            ene_discounted=disc * ene,
            se_epe=se_epe,
            se_ene=se_ene,
            se_epe_discounted=disc * se_epe,
            se_ene_discounted=disc * se_ene,
        )

    def to_rows(self):
        """CSV header (the field names, times as "time") and one row per time."""
        names = [field.name for field in fields(self)]
        return ["time", *names[1:]], list(zip(*(getattr(self, name) for name in names)))


# the gap's positive part in the first row, its negative part in the second
_BOTH_SIDES = np.array([[1.0], [-1.0]])


def _exposure_moments(weight, sided) -> tuple[float, float, float, float]:
    """EPE, ENE and their standard errors at one grid time, from the gap
    V - C's positive and negative parts, sided = max(gap * _BOTH_SIDES, 0)
    ((2, n_paths), or (2, 1) for a gap that every path shares), each path's
    parts weighted by weight: its survival probability, or its 0/1
    indicator of being alive."""
    weighted = weight * sided
    means = weighted.mean(axis=1)
    # the standard deviation as np.std forms it, from the means already taken
    weighted -= means[:, None]
    weighted *= weighted
    se = np.sqrt(weighted.mean(axis=1)) / math.sqrt(weighted.shape[1])
    return means[0], means[1], se[0], se[1]


def exposure_profile(
    paths: PathSet,
    valuation,
    collateral: CollateralSpec,
    ois: PiecewiseCurve | None = None,
    collateral_valuation=None,
) -> ExposureProfile:
    """Expected positive/negative exposure of (V - C) on the grid.

    valuation(t, s, pi_c, pi_b) returns per-path values V at grid time t;
    collateral is driven by the perfectly collateralized value, supplied by
    collateral_valuation with the same signature (defaults to valuation).
    Paths on which either name has defaulted stop contributing.
    """
    if ois is None:
        ois = PiecewiseCurve.flat(0.0)
    if collateral_valuation is None:
        collateral_valuation = valuation
    n = paths.n_paths
    moments = np.empty((4, len(paths.times)))

    def per_path(f, k, t):
        return np.broadcast_to(
            np.asarray(f(t, paths.s[:, k], paths.pi_c[:, k], paths.pi_b[:, k]), dtype=float),
            (n,),
        )

    for k, t in enumerate(paths.times):
        value = per_path(valuation, k, t)
        posted = collateral_amount(collateral, per_path(collateral_valuation, k, t))
        sided = np.maximum((value - posted) * _BOTH_SIDES, 0.0)
        moments[:, k] = _exposure_moments(paths.alive(t), sided)
    discounts = np.exp(-ois.integral_from_zero(paths.times))
    return ExposureProfile.from_expectations(paths.times, discounts, *moments)
