"""March and the leapfrog oracle against an exact lifespan.

With the flat-top data of references.FlatTop at a = b = -1, u_t = v(t) on
the plateau's domain of dependence, where v' = |v|^p and v(0) = eps g0, so
the solution blows up at T* = (eps g0)^(1-p) / (p-1).  On that domain
march's centre column is the implicit trapezoid rule for the ODE,
z_n = z_(n-1) + (h/2)(|z_(n-1)|^p + |z_n|^p), and it detects blow-up at the
first level where the rule has no root.  Both solvers are first order, so
halving the step must move T_blow towards T*.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from references import FlatTop
from wavelifespan.core import Cause, GridSpec, ModelParams
from wavelifespan.oracle import leapfrog_solve
from wavelifespan.solver import march

EPS, G0, R = 0.5, 1.0, 6.0
DATA = FlatTop(amplitude_g=G0, R=R)
T_MAX = R - 1.0  # the plateau's domain of dependence reaches the centre up to t = R - 1


def params(p):
    return ModelParams(p, -1.0, -1.0, EPS, R)


def exact_lifespan(p):
    return (EPS * G0) ** (1.0 - p) / (p - 1.0)


def trapezoid_rule(p, h, n_max):
    """The rule's levels z_0.. up to its last root, and the first level without one.

    The level equation z = base + (h/2) z^p has a root iff base is at most
    z_m (1 - 1/p), z_m = (p h/2)^(-1/(p-1)) the minimum of its residual;
    the smallest root lies in [base, z_m].
    """
    gamma = 0.5 * h
    z_m = (p * gamma) ** (-1.0 / (p - 1.0))
    zs = [EPS * G0]
    for n in range(1, n_max + 1):
        base = zs[-1] + gamma * zs[-1] ** p
        if base > z_m * (1.0 - 1.0 / p):
            return zs, n
        zs.append(brentq(lambda z: base + gamma * z**p - z, base, z_m, xtol=1e-300, rtol=1e-15))
    return zs, None


def march_T(p, h):
    grid = GridSpec(h=h, t_max=T_MAX, pad=R)
    field, est = march(params(p), DATA, grid)
    return grid, field, est


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("h", [0.1, 0.025])
def test_march_centre_column_is_the_trapezoid_rule(p, h):
    grid, field, est = march_T(p, h)
    zs, n_detect = trapezoid_rule(p, h, grid.n_t)
    assert n_detect is not None and exact_lifespan(p) < T_MAX
    np.testing.assert_allclose(field.levels[:, (grid.n_x - 1) // 2], zs, rtol=1e-10, atol=0.0)
    assert est.cause is Cause.no_root
    assert est.T_blow == n_detect * h - 0.5 * h


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_march_rises_to_the_exact_lifespan_from_below(p):
    T_star = exact_lifespan(p)
    T = [march_T(p, h)[2].T_blow for h in (0.1, 0.05, 0.025, 0.0125)]
    assert all(t < T_star for t in T)
    assert all(coarse < fine for coarse, fine in zip(T, T[1:]))
    # first order: the extrapolation 2 T(h/2) - T(h) removes the leading error
    for coarse, fine in zip(T, T[1:]):
        assert abs(2.0 * fine - coarse - T_star) < T_star - fine


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_leapfrog_converges_to_the_exact_lifespan(p):
    T_star = exact_lifespan(p)
    T = [leapfrog_solve(params(p), DATA, dx=dx, t_max=T_MAX)[1].T_blow for dx in (0.02, 0.01, 0.005)]
    errors = [abs(t - T_star) for t in T]
    assert all(coarse > fine for coarse, fine in zip(errors, errors[1:]))
    for coarse, fine in zip(T, T[1:]):
        assert abs(2.0 * fine - coarse - T_star) < abs(fine - T_star)
