"""Risk-neutral path simulation and exposure profiles.

Three correlated factors are simulated: a lognormal underlying S and two
arithmetic Brownian short CDS spreads (counterparty and bank), floored at
zero. Default times are doubly stochastic on top of the spread paths.

Reproducibility contract: every block of 4096 paths derives its own
counter-based Philox stream from (master seed, stream id, block index), so
results are bit-identical for a fixed configuration no matter how many
workers execute the blocks or in which order they finish.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

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
        if self.s0 <= 0:
            raise ValueError("s0 must be positive")
        for name in ("vol_s", "vol_c", "vol_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
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
        return ModelDynamics(
            s0=self.s0,
            rate=self.rate,
            dividend=self.dividend,
            vol_s=self.vol_s,
            pi0_c=self.pi0_b,
            pi0_b=self.pi0_c,
            drift_c=self.drift_b,
            drift_b=self.drift_c,
            vol_c=self.vol_b,
            vol_b=self.vol_c,
            rho_sc=self.rho_sb,
            rho_sb=self.rho_sc,
            rho_cb=self.rho_cb,
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

    Arrays are shaped (n_paths, n_steps + 1). tau_c / tau_b are +inf on
    paths that do not default before the crossing of their exponential
    clock within the horizon, and None until sampled. clock_columns names
    the columns of each block's exponential draws that drive (tau_c, tau_b),
    so that a role swap hands each name its own clock. Treat all arrays as
    read-only.
    """

    times: np.ndarray
    s: np.ndarray
    pi_c: np.ndarray
    pi_b: np.ndarray
    seed: int
    tau_c: np.ndarray | None = None
    tau_b: np.ndarray | None = None
    clock_columns: tuple[int, int] = (0, 1)

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
    """
    if n_steps < 1 or n_paths < 1:
        raise ValueError("n_steps and n_paths must be at least 1")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    times = np.linspace(0.0, horizon, n_steps + 1)
    dt = horizon / n_steps
    sqrt_dt = math.sqrt(dt)
    factor = dyn._factor
    s_drift = (dyn.rate - dyn.dividend - 0.5 * dyn.vol_s**2) * dt

    s = np.empty((n_paths, n_steps + 1))
    pi_c = np.empty((n_paths, n_steps + 1))
    pi_b = np.empty((n_paths, n_steps + 1))

    def fill_block(block: int, start: int, stop: int) -> None:
        gen = _philox_generator(seed, _DIFFUSION_STREAM, block)
        z = gen.standard_normal((stop - start, n_steps, 3)) @ factor.T
        s_blk = s[start:stop]
        c_blk = pi_c[start:stop]
        b_blk = pi_b[start:stop]
        s_blk[:, 0] = dyn.s0
        c_blk[:, 0] = dyn.pi0_c
        b_blk[:, 0] = dyn.pi0_b
        for k in range(n_steps):
            s_blk[:, k + 1] = s_blk[:, k] * np.exp(
                s_drift + dyn.vol_s * sqrt_dt * z[:, k, 0]
            )
            c_blk[:, k + 1] = np.maximum(
                c_blk[:, k] + dyn.drift_c * dt + dyn.vol_c * sqrt_dt * z[:, k, 1], 0.0
            )
            b_blk[:, k + 1] = np.maximum(
                b_blk[:, k] + dyn.drift_b * dt + dyn.vol_b * sqrt_dt * z[:, k, 2], 0.0
            )

    blocks = list(_block_ranges(n_paths))
    if n_workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(lambda args: fill_block(*args), blocks))
    else:
        for args in blocks:
            fill_block(*args)

    return PathSet(times=times, s=s, pi_c=pi_c, pi_b=pi_b, seed=seed)


def _sample_clock(
    intensity: np.ndarray, times: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """First passage of the integrated intensity over an exponential draw.

    Left-endpoint accumulation on the grid; the crossing is interpolated
    inside the step, which is exact while the intensity is constant over
    each step.
    """
    dt = times[1] - times[0]
    n_steps = len(times) - 1
    cum = np.concatenate(
        [np.zeros((intensity.shape[0], 1)), np.cumsum(intensity[:, :-1] * dt, axis=1)],
        axis=1,
    )
    last_below = (cum < draws[:, None]).sum(axis=1) - 1
    tau = np.full(intensity.shape[0], np.inf)
    crossed = last_below < n_steps
    idx = last_below[crossed]
    rows = np.nonzero(crossed)[0]
    lam = intensity[rows, idx]
    tau[rows] = times[idx] + (draws[rows] - cum[rows, idx]) / lam
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
    """
    if recovery_c >= 1.0 or recovery_b >= 1.0:
        raise ValueError("recoveries must be below 1")

    def intensity(pi: np.ndarray, recovery: float, basis):
        lam = pi.copy()
        if basis is not None:
            lam = lam + basis.values_at(paths.times)[None, :]
        return np.maximum(lam, 0.0) / (1.0 - recovery)

    lam_c = intensity(paths.pi_c, recovery_c, basis_c)
    lam_b = intensity(paths.pi_b, recovery_b, basis_b)
    col_c, col_b = paths.clock_columns

    tau_c = np.empty(paths.n_paths)
    tau_b = np.empty(paths.n_paths)
    for block, start, stop in _block_ranges(paths.n_paths):
        gen = _philox_generator(
            paths.seed, _DEFAULT_STREAM_BASE + seed_offset, block
        )
        draws = gen.standard_exponential((stop - start, 2))
        tau_c[start:stop] = _sample_clock(
            lam_c[start:stop], paths.times, draws[:, col_c]
        )
        tau_b[start:stop] = _sample_clock(
            lam_b[start:stop], paths.times, draws[:, col_b]
        )
    return replace(paths, tau_c=tau_c, tau_b=tau_b)


def swap_roles(paths: PathSet) -> PathSet:
    """The same simulated world seen from the other side of the trade."""
    return replace(
        paths, pi_c=paths.pi_b, pi_b=paths.pi_c, tau_c=paths.tau_b, tau_b=paths.tau_c,
        clock_columns=paths.clock_columns[::-1],
    )


@dataclass(frozen=True, eq=False)
class ExposureProfile:
    """Expected exposure term structures with standard errors."""

    times: np.ndarray
    epe: np.ndarray
    ene: np.ndarray
    epe_discounted: np.ndarray
    ene_discounted: np.ndarray
    se_epe: np.ndarray
    se_ene: np.ndarray
    se_epe_discounted: np.ndarray
    se_ene_discounted: np.ndarray

    def to_rows(self):
        header = [
            "time",
            "epe",
            "ene",
            "epe_discounted",
            "ene_discounted",
            "se_epe",
            "se_ene",
            "se_epe_discounted",
            "se_ene_discounted",
        ]
        columns = [getattr(self, name if name != "time" else "times") for name in header]
        return header, list(zip(*columns))


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
    m = len(paths.times)
    epe = np.empty(m)
    ene = np.empty(m)
    epe_d = np.empty(m)
    ene_d = np.empty(m)
    se_epe = np.empty(m)
    se_ene = np.empty(m)
    se_epe_d = np.empty(m)
    se_ene_d = np.empty(m)
    discounts = np.exp(-ois.integral_from_zero(paths.times))
    sqrt_n = math.sqrt(n)
    for k, t in enumerate(paths.times):
        value = np.broadcast_to(
            np.asarray(valuation(t, paths.s[:, k], paths.pi_c[:, k], paths.pi_b[:, k]),
                       dtype=float),
            (n,),
        )
        v_coll = np.broadcast_to(
            np.asarray(
                collateral_valuation(t, paths.s[:, k], paths.pi_c[:, k], paths.pi_b[:, k]),
                dtype=float,
            ),
            (n,),
        )
        posted = collateral_amount(collateral, v_coll)
        alive = paths.alive(t)
        gap = np.where(alive, value - posted, 0.0)
        pos = np.maximum(gap, 0.0)
        neg = np.maximum(-gap, 0.0)
        epe[k] = pos.mean()
        ene[k] = neg.mean()
        epe_d[k] = discounts[k] * epe[k]
        ene_d[k] = discounts[k] * ene[k]
        se_epe[k] = pos.std() / sqrt_n
        se_ene[k] = neg.std() / sqrt_n
        se_epe_d[k] = discounts[k] * se_epe[k]
        se_ene_d[k] = discounts[k] * se_ene[k]
    return ExposureProfile(
        times=paths.times.copy(),
        epe=epe,
        ene=ene,
        epe_discounted=epe_d,
        ene_discounted=ene_d,
        se_epe=se_epe,
        se_ene=se_ene,
        se_epe_discounted=se_epe_d,
        se_ene_discounted=se_ene_d,
    )
