"""Domain types, validation, and JSON configuration shared by all modules.

The model is u_tt - u_xx = |u_t|^p / (<t+<x>>^{1+a} <t-<x>>^{1+b}) with
small data u(0) = eps*f, u_t(0) = eps*g compactly supported in |x| <= R.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

ALIGN_TOL = 1e-9


class Family(str, Enum):
    zero = "zero"
    bump = "bump"
    bump_pair = "bump_pair"


class Status(str, Enum):
    blowup = "blowup"
    survived = "survived"
    inner_iteration_failed = "inner_iteration_failed"


class Cause(str, Enum):
    threshold_exceeded = "threshold_exceeded"
    fixed_point_diverged = "fixed_point_diverged"


class RegimeKind(str, Enum):
    global_ = "global"
    exp_p_minus_1 = "exp_p_minus_1"
    exp_p_p_minus_1 = "exp_p_p_minus_1"
    poly_a = "poly_a"
    poly_pab = "poly_pab"


@dataclass(frozen=True)
class ModelParams:
    """Exponents and amplitude governing every kernel and classifier."""

    p: float
    a: float
    b: float
    epsilon: float
    R: float = 1.0


@dataclass(frozen=True)
class InitialData:
    """Compactly supported (f, g) from the built-in C^2 bump family.

    bump profile: amplitude * (1 - (x/R)^2)^3 for |x| < R, else 0.
    family zero: f = g = 0; bump: f = 0, g = bump; bump_pair: both bumps.
    """

    family: Family
    amplitude_f: float
    amplitude_g: float
    R: float = 1.0

    def _bump(self, x, amplitude):
        x = np.asarray(x, dtype=float)
        u = x / self.R
        core = np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 3, 0.0)
        return amplitude * core

    def _bump_prime(self, x, amplitude):
        x = np.asarray(x, dtype=float)
        u = x / self.R
        core = np.where(np.abs(u) < 1.0, -6.0 * u / self.R * (1.0 - u * u) ** 2, 0.0)
        return amplitude * core

    def _bump_antiderivative(self, x, amplitude):
        # closed-form degree-7 antiderivative of the bump, vanishing at x=0
        x = np.asarray(x, dtype=float)
        u = np.clip(x / self.R, -1.0, 1.0)
        poly = u - u**3 + 0.6 * u**5 - u**7 / 7.0
        return amplitude * self.R * poly

    def f(self, x):
        if self.family is Family.bump_pair:
            return self._bump(x, self.amplitude_f)
        return np.zeros_like(np.asarray(x, dtype=float))

    def f_prime(self, x):
        if self.family is Family.bump_pair:
            return self._bump_prime(x, self.amplitude_f)
        return np.zeros_like(np.asarray(x, dtype=float))

    def g(self, x):
        if self.family in (Family.bump, Family.bump_pair):
            return self._bump(x, self.amplitude_g)
        return np.zeros_like(np.asarray(x, dtype=float))

    def g_prime(self, x):
        if self.family in (Family.bump, Family.bump_pair):
            return self._bump_prime(x, self.amplitude_g)
        return np.zeros_like(np.asarray(x, dtype=float))

    def g_antiderivative(self, x):
        """Antiderivative G of g with G(0) = 0, exact for the bump polynomial."""
        if self.family in (Family.bump, Family.bump_pair):
            return self._bump_antiderivative(x, self.amplitude_g)
        return np.zeros_like(np.asarray(x, dtype=float))

    def g_total_integral(self) -> float:
        return float(self.g_antiderivative(self.R) - self.g_antiderivative(-self.R))

    def sup_f_prime(self) -> float:
        if self.family is Family.bump_pair:
            xs = np.linspace(-self.R, self.R, 4001)
            return float(np.max(np.abs(self.f_prime(xs))))
        return 0.0

    def sup_g(self) -> float:
        if self.family in (Family.bump, Family.bump_pair):
            return abs(self.amplitude_g)
        return 0.0


@dataclass(frozen=True)
class GridSpec:
    """Characteristic lattice with dx = dt = h on [-(t_max+pad), t_max+pad]."""

    h: float
    t_max: float
    pad: float

    @property
    def x_min(self) -> float:
        return -(self.t_max + self.pad)

    @property
    def n_t(self) -> int:
        return int(round(self.t_max / self.h))

    @property
    def n_x(self) -> int:
        # nodes x_i = x_min + i*h, i = 0..n_x-1, covering [-L, L]
        return 2 * int(round((self.t_max + self.pad) / self.h)) + 1

    def x_nodes(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(self.n_x)

    def t_levels(self) -> np.ndarray:
        return self.h * np.arange(self.n_t + 1)

    def active_slice(self, n: int, R: float) -> tuple[int, int]:
        """Index range [lo, hi] of nodes with |x_i| <= t_n + R."""
        t = n * self.h
        lo = math.ceil((-(t + R) - self.x_min) / self.h - 1e-9)
        hi = math.floor(((t + R) - self.x_min) / self.h + 1e-9)
        return max(lo, 0), min(hi, self.n_x - 1)

    def index_of_x(self, x: float) -> int:
        i = (x - self.x_min) / self.h
        j = int(round(i))
        if abs(i - j) > ALIGN_TOL * max(1.0, abs(i)) + ALIGN_TOL:
            raise ValueError(f"x={x} is not a lattice node (h={self.h})")
        return j

    def index_of_t(self, t: float) -> int:
        n = t / self.h
        m = int(round(n))
        if abs(n - m) > ALIGN_TOL * max(1.0, abs(n)) + ALIGN_TOL:
            raise ValueError(f"t={t} is not a lattice level (h={self.h})")
        return m


@dataclass
class CharField:
    """U = u_t sampled on the characteristic lattice.

    levels[n][i] = U(x_i, t_n); None when the run was asked not to keep the
    field (large sweeps).
    """

    grid: GridSpec
    levels: Optional[np.ndarray]
    n_levels_done: int = 0

    def value(self, x: float, t: float) -> float:
        if self.levels is None:
            raise ValueError("field values were not stored for this run")
        n = self.grid.index_of_t(t)
        i = self.grid.index_of_x(x)
        if n >= self.levels.shape[0]:
            raise KeyError(f"level t={t} not computed")
        return float(self.levels[n, i])


@dataclass
class LifespanEstimate:
    status: Status
    T_blow: Optional[float]
    h: float
    sup_history: list = field(default_factory=list)
    cause: Optional[Cause] = None
    weighted_sup_history: Optional[list] = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status.value,
                "T_blow": self.T_blow,
                "h": self.h,
                "cause": self.cause.value if self.cause else None,
            }
        )


@dataclass(frozen=True)
class Regime:
    kind: RegimeKind
    exponent: Optional[float]
    formula: str


def validate(params: ModelParams, data: InitialData, grid: Optional[GridSpec] = None) -> list[str]:
    """Return one message per violated invariant; empty list means all good."""
    values = dict(vars(params), amplitude_f=data.amplitude_f, amplitude_g=data.amplitude_g)
    if grid is not None:
        values.update(h=grid.h, t_max=grid.t_max, pad=grid.pad)
    out = [f"{name} must be finite" for name, val in values.items() if not math.isfinite(val)]
    if out:  # every comparison below is meaningless on NaN
        return out
    if not params.p > 1:
        out.append("p must exceed 1")
    if params.R < 1:
        out.append("R must be >= 1")
    if params.epsilon < 0:
        out.append("epsilon must be >= 0")
    if data.R != params.R:
        out.append("InitialData.R must equal ModelParams.R")
    if data.family in (Family.bump, Family.bump_pair) and data.amplitude_g < 0:
        out.append("amplitude_g must be >= 0 so that integral of g is positive")
    if grid is not None:
        if grid.h <= 0:
            out.append("h must be positive")
        else:
            for name, val in (("t_max", grid.t_max), ("t_max+pad", grid.t_max + grid.pad)):
                ratio = val / grid.h
                if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
                    out.append(f"{name} must be an integer multiple of h")
        if grid.pad < params.R:
            out.append("pad must be >= R")
        if grid.t_max <= 0:
            out.append("t_max must be positive")
    return out


def require_valid(params: ModelParams, data: InitialData, grid: Optional[GridSpec] = None) -> None:
    """Raise ValueError listing every violation that validate reports."""
    violations = validate(params, data, grid)
    if violations:
        raise ValueError("invalid configuration: " + "; ".join(violations))


def _data_from_config(cfg: dict, R: float) -> InitialData:
    f_cfg = cfg.get("f", {"family": "zero", "amplitude": 0.0})
    g_cfg = cfg.get("g", {"family": "zero", "amplitude": 0.0})
    f_on = f_cfg.get("family", "zero") == "bump"
    g_on = g_cfg.get("family", "zero") == "bump"
    if f_on:
        family = Family.bump_pair
    elif g_on:
        family = Family.bump
    else:
        family = Family.zero
    return InitialData(
        family=family,
        amplitude_f=float(f_cfg.get("amplitude", 0.0)) if f_on else 0.0,
        amplitude_g=float(g_cfg.get("amplitude", 0.0)) if g_on else 0.0,
        R=R,
    )


def load_config(cfg: dict) -> tuple[ModelParams, InitialData, GridSpec]:
    """Parse the JSON config schema into the three core types."""
    params = ModelParams(
        p=float(cfg["p"]),
        a=float(cfg["a"]),
        b=float(cfg["b"]),
        epsilon=float(cfg["epsilon"]),
        R=float(cfg.get("R", 1.0)),
    )
    data = _data_from_config(cfg, params.R)
    grid_cfg = cfg.get("grid", {})
    grid = GridSpec(
        h=float(grid_cfg.get("h", 0.05)),
        t_max=float(grid_cfg.get("t_max", 50.0)),
        pad=float(grid_cfg.get("pad", max(1.0, params.R))),
    )
    return params, data, grid


def load_config_file(path: str) -> tuple[ModelParams, InitialData, GridSpec]:
    with open(path) as fh:
        return load_config(json.load(fh))
