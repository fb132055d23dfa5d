"""Domain types, validation, and JSON configuration shared by all modules.

The model is u_tt - u_xx = |u_t|^p / (<t+<x>>^{1+a} <t-<x>>^{1+b}) with
small data u(0) = eps*f, u_t(0) = eps*g compactly supported in |x| <= R.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

ALIGN_TOL = 1e-9


def align_slack(size):
    """ALIGN_TOL * (1 + |size|), the distance within which a coordinate of
    magnitude size sits on a lattice point; plain arithmetic, so cheap on a float."""
    return ALIGN_TOL * (1.0 + abs(size))


class IndexTooLarge(ValueError):
    """An offset on the lattice whose index does not fit in int64."""


def lattice_index(offset, h: float, what: str):
    """round(offset / h), the index of offset on the lattice of step h.

    An int, or an int64 array for an array offset.  Raises ValueError
    "{what} (h=...)" unless h is positive and finite and every offset / h is
    a finite integer to within align_slack, and IndexTooLarge when such an
    integer is 2^63 or more in magnitude, where an array's index would wrap.
    """
    ratio = np.asarray(offset, dtype=float) / (h if 0 < h < math.inf else math.nan)
    k = np.rint(ratio)
    with np.errstate(invalid="ignore"):  # inf - inf: NaN fails the test below
        if not np.all(np.abs(ratio - k) <= align_slack(ratio)):
            raise ValueError(f"{what} (h={h})")
    if not np.all(np.abs(k) < 2.0**63):
        raise IndexTooLarge(f"{what} (h={h}): index of magnitude 2^63 or more")
    return int(k) if k.ndim == 0 else k.astype(int)


class Family(str, Enum):
    zero = "zero"
    bump = "bump"
    bump_pair = "bump_pair"


class Status(str, Enum):
    blowup = "blowup"
    survived = "survived"
    inner_iteration_failed = "inner_iteration_failed"


class Cause(str, Enum):
    """How a run stopped; LifespanEstimate.status follows from it."""

    threshold_exceeded = "threshold_exceeded"
    no_root = "no_root"
    inner_max_exhausted = "inner_max_exhausted"


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

    @property
    def _amp_f(self) -> float:
        return self.amplitude_f if self.family is Family.bump_pair else 0.0

    @property
    def _amp_g(self) -> float:
        return 0.0 if self.family is Family.zero else self.amplitude_g

    def f(self, x):
        return self._bump(x, self._amp_f)

    def f_prime(self, x):
        return self._bump_prime(x, self._amp_f)

    def g(self, x):
        return self._bump(x, self._amp_g)

    def g_prime(self, x):
        return self._bump_prime(x, self._amp_g)

    def g_antiderivative(self, x):
        """Antiderivative G of g with G(0) = 0, exact for the bump polynomial."""
        return self._bump_antiderivative(x, self._amp_g)

    def g_total_integral(self) -> float:
        return float(self.g_antiderivative(self.R) - self.g_antiderivative(-self.R))

    def sup_f_prime(self) -> float:
        xs = np.linspace(-self.R, self.R, 4001)
        return float(np.max(np.abs(self.f_prime(xs))))

    def sup_g(self) -> float:
        return abs(self._amp_g)


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

    def active_slice(self, n: int, R: float) -> tuple[int, int]:
        """Index range [lo, hi] of nodes with |x_i| <= t_n + R, clamped to the grid:
        the centre +- (n + the whole steps of h in R, to within align_slack)."""
        half = n + math.floor(R / self.h + align_slack(R / self.h))
        centre = (self.n_x - 1) // 2
        return max(centre - half, 0), min(centre + half, 2 * centre)

    def index_of_x(self, x):
        shown = x if np.ndim(x) == 0 else "[...]"  # an array's repr is slow
        return lattice_index(np.subtract(x, self.x_min), self.h, f"x={shown} is not a lattice node")

    def index_of_t(self, t):
        shown = t if np.ndim(t) == 0 else "[...]"
        return lattice_index(t, self.h, f"t={shown} is not a lattice level")


@dataclass
class CharField:
    """U = u_t sampled on the characteristic lattice.

    levels[n][i] = U(x_i, t_n); None when the run was asked not to keep the
    field (large sweeps).
    """

    grid: GridSpec
    levels: Optional[np.ndarray]
    n_levels_done: int = 0

    def stored_levels(self) -> np.ndarray:
        """levels, or ValueError when the run did not keep the field."""
        if self.levels is None:
            raise ValueError("field values were not stored for this run")
        return self.levels


def default_blow_threshold(params: ModelParams, data: InitialData) -> float:
    """|u_t| past which a run has blown up: 1e6 times (1 + sup of the free data)."""
    sup_free = params.epsilon * (data.sup_f_prime() + data.sup_g())
    return 1e6 * (1.0 + sup_free)


@dataclass
class LifespanEstimate:
    """A run's verdict: cause is None when it reached its horizon."""

    T_blow: Optional[float]
    h: float
    sup_history: list = field(default_factory=list)
    cause: Optional[Cause] = None
    weighted_sup_history: Optional[list] = None

    @property
    def status(self) -> Status:
        if self.cause is None:
            return Status.survived
        if self.cause is Cause.inner_max_exhausted:
            return Status.inner_iteration_failed
        return Status.blowup

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
                try:
                    lattice_index(val, grid.h, name)
                except IndexTooLarge:
                    out.append(f"{name} / h must be below 2^63")
                except ValueError:
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


def _number(cfg: dict, key: str, default: Optional[float] = None, where: str = "") -> float:
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config {where}{key} must be a number, got {value!r}")
    return float(value)


def _section(cfg: dict, key: str) -> dict:
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"config {key} must be a JSON object, got {value!r}")
    return value


def _bump_on(cfg: dict, key: str) -> bool:
    family = _section(cfg, key).get("family", "zero")
    if family not in ("zero", "bump"):
        raise ValueError(f"config {key}.family must be 'zero' or 'bump', got {family!r}")
    return family == "bump"


def _data_from_config(cfg: dict, R: float) -> InitialData:
    f_on, g_on = _bump_on(cfg, "f"), _bump_on(cfg, "g")
    if f_on:
        family = Family.bump_pair
    elif g_on:
        family = Family.bump
    else:
        family = Family.zero
    return InitialData(
        family=family,
        amplitude_f=_number(cfg["f"], "amplitude", 0.0, "f.") if f_on else 0.0,
        amplitude_g=_number(cfg["g"], "amplitude", 0.0, "g.") if g_on else 0.0,
        R=R,
    )


def load_config(cfg: dict) -> tuple[ModelParams, InitialData, GridSpec]:
    """Parse the JSON config schema into the three core types.

    Raises ValueError for a config that is not an object, a missing or
    non-numeric parameter, a section that is not an object, or an unknown
    family.
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, got {cfg!r}")
    missing = [key for key in ("p", "a", "b", "epsilon") if key not in cfg]
    if missing:
        raise ValueError(f"config lacks the keys {', '.join(missing)}")
    params = ModelParams(
        p=_number(cfg, "p"),
        a=_number(cfg, "a"),
        b=_number(cfg, "b"),
        epsilon=_number(cfg, "epsilon"),
        R=_number(cfg, "R", 1.0),
    )
    data = _data_from_config(cfg, params.R)
    grid_cfg = _section(cfg, "grid")
    grid = GridSpec(
        h=_number(grid_cfg, "h", 0.05, "grid."),
        t_max=_number(grid_cfg, "t_max", 50.0, "grid."),
        pad=_number(grid_cfg, "pad", max(1.0, params.R), "grid."),
    )
    return params, data, grid


def load_config_file(path: str) -> tuple[ModelParams, InitialData, GridSpec]:
    with open(path) as fh:
        return load_config(json.load(fh))
