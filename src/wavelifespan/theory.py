"""Closed-form side of the lifespan analysis: regime classification, bound
formulas, a-priori bound functions, and the pointwise blow-up iteration
quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .core import ModelParams, Regime, RegimeKind

Number = Union[int, float, Fraction]


def classify_regime(p: Number, a: Number, b: Number) -> Regime:
    """Exactly one of the five lifespan cases; total for finite a, b and p > 1."""
    if not all(math.isfinite(v) for v in (p, a, b)):
        raise ValueError(f"p, a and b must be finite, got p={p}, a={a}, b={b}")
    if not p > 1:
        raise ValueError("p must exceed 1")
    s = p * (1 + a) + b
    if a > 0 and s > 0:
        return Regime(RegimeKind.global_, None)
    if a == 0 and b >= -p:
        return Regime(RegimeKind.exp_p_minus_1, None)
    if a > 0 and s == 0:
        return Regime(RegimeKind.exp_p_p_minus_1, None)
    if a < 0 and b >= -p:
        return Regime(RegimeKind.poly_a, float((p - 1) / (-a)))
    if s < 0 and b < -p:
        return Regime(RegimeKind.poly_pab, float(p * (p - 1) / (-s)))
    raise ValueError(f"no lifespan case for p={p}, a={a}, b={b}")


def lifespan_rate(p: float, a: float, b: float) -> tuple[bool, float]:
    """(exponential, r) of the regime's lifespan law: exp(c eps^-r) with
    r = p-1 or p(p-1) when exponential, else c eps^-r with the polynomial
    exponent r.  Raises ValueError in the global regime."""
    regime = classify_regime(p, a, b)
    kind = regime.kind
    if kind is RegimeKind.global_:
        raise ValueError("global regime has no finite lifespan to invert")
    if kind is RegimeKind.exp_p_minus_1:
        return True, p - 1
    if kind is RegimeKind.exp_p_p_minus_1:
        return True, p * (p - 1)
    return False, regime.exponent


def lifespan_bound(p: float, a: float, b: float, epsilon: float, c: float) -> float:
    """Evaluate the regime's lifespan formula with constant c (inf if global
    or past the float range)."""
    if not (p > 1 and 0 < epsilon < math.inf and 0 < c < math.inf):
        raise ValueError("need p > 1 and finite epsilon > 0, c > 0")
    if classify_regime(p, a, b).kind is RegimeKind.global_:
        return math.inf
    exponential, r = lifespan_rate(p, a, b)
    try:
        power = epsilon ** -r
        return math.exp(c * power) if exponential else c * power
    except OverflowError:  # a tiny epsilon overflows the power or the exp
        return math.inf


def invert_lifespan_bound(p: float, a: float, b: float, T: float, c: float = 1.0) -> float:
    """epsilon with predicted lifespan T under the regime's formula."""
    exponential, r = lifespan_rate(p, a, b)
    if exponential and not T > 1:
        raise ValueError(
            "an exponential-regime lifespan exp(c*eps^-r) exceeds 1 for every eps > 0: "
            f"T={T:g} must exceed 1"
        )
    if not T > 0:
        raise ValueError(f"a lifespan is positive: T={T:g}")
    if exponential:
        return (c / math.log(T)) ** (1.0 / r)
    return (T / c) ** (-1.0 / r)


def E_ab(T: float, p: Number, a: Number, b: Number, R: float) -> float:
    """Growth factor of the a-priori Duhamel bound; five cases mirror the regimes."""
    if T < 0 or R < 1 or not p > 1:
        raise ValueError("need T >= 0, R >= 1, p > 1")
    kind = classify_regime(p, a, b).kind
    if kind is RegimeKind.global_:
        return 1.0
    if kind is RegimeKind.exp_p_minus_1:
        return math.log(T + 3 * R) ** float(p)
    if kind is RegimeKind.exp_p_p_minus_1:
        return math.log(T + 3 * R)
    if kind is RegimeKind.poly_a:
        return (T + 2 * R) ** float(-a * p)
    return (T + 2 * R) ** float(-p * (1 + a) - b)


def D_a(T: float, a: float, R: float) -> float:
    if T < 0 or R < 1:
        raise ValueError("need T >= 0, R >= 1")
    if a > 0:
        return 1.0
    if a == 0:
        return math.log(T + 3 * R)
    return (T + 2 * R) ** (-a)


def S_p2(p: float) -> float:
    """sum_{j>=1} j p^{-2j} in closed form, with p^2 - 1 as (p-1)(p+1): p - 1
    is exact for p in (1, 2], so nothing cancels as p -> 1+."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    return p**2 / ((p - 1) * (p + 1)) ** 2


def a_n_closed_form(p: int, n: int) -> Fraction:
    """Recursion-consistent closed form (p^{2(n-1)} - 1)/(p - 1)."""
    pf = Fraction(p)
    return (pf ** (2 * (n - 1)) - 1) / (pf - 1)


def C0_constant(a: float, b: float) -> float:
    return 3.0 ** (-abs(a)) * 2.0 ** (-abs(b)) / (8.0 * math.sqrt(2.0))


def _log_C1(p: float, a: float, b: float) -> float:
    """log C1 = (p+1) log C0 + p log(p-1), finite where C1 itself under- or overflows."""
    log_C0 = -abs(a) * math.log(3.0) - abs(b) * math.log(2.0) - math.log(8.0 * math.sqrt(2.0))
    return (p + 1) * log_C0 + p * math.log(p - 1)


def C1_constant(p: float, a: float, b: float) -> float:
    """C0^{p+1} (p-1)^p; inf past the float range."""
    return _exp(_log_C1(p, a, b))


def _case2_q(p: float, a: float, b: float, who: str) -> float:
    """q = -(p(1+a)+b), which Case 2 needs positive."""
    q = -(p * (1 + a) + b)
    if q <= 0:
        raise ValueError(f"{who} requires p(1+a)+b < 0")
    return q


def _log_C2(p: float, a: float, b: float) -> float:
    """log C2 = log C1 - (p+1) log(2q)."""
    q = _case2_q(p, a, b, "C2")
    return _log_C1(p, a, b) - (p + 1) * (math.log(2.0) + math.log(q))


def C2_constant(p: float, a: float, b: float) -> float:
    """C1 / (2q)^{p+1}; inf past the float range."""
    return _exp(_log_C2(p, a, b))


@dataclass(frozen=True)
class BlowupSequenceState:
    n: int
    a_n: Fraction
    log_M_n: float


def blowup_sequence(
    p: Number,
    n_max: int,
    M1: float,
    a: float = 0.0,
    b: float = 0.0,
) -> list[BlowupSequenceState]:
    """a_{n+1} = p^2 a_n + p + 1 exactly; M_{n+1} = C1 p^{-2pn} M_n^{p^2} in
    the log domain (M_n collapses doubly exponentially)."""
    if not all(math.isfinite(v) for v in (p, M1, a, b)):
        raise ValueError(f"p, M1, a and b must be finite, got p={p}, M1={M1}, a={a}, b={b}")
    if not (p > 1 and n_max >= 1 and M1 > 0):
        raise ValueError("need p > 1, n_max >= 1, M1 > 0")
    log_C1 = _log_C1(float(p), a, b)
    pf = Fraction(p)
    p2 = float(p) ** 2
    states = []
    a_n = Fraction(0)
    log_M = math.log(M1)
    for n in range(1, n_max + 1):
        states.append(BlowupSequenceState(n=n, a_n=a_n, log_M_n=log_M))
        a_n = pf**2 * a_n + pf + 1
        log_M = log_C1 - 2.0 * float(p) * n * math.log(float(p)) + p2 * log_M
    return states


def _check_in_D(x: float, t: float, R: float) -> None:
    if not R >= 1:
        raise ValueError("need R >= 1")
    if not (t - abs(x) >= R and t + abs(x) >= R):
        raise ValueError("(x, t) must lie in the interior region t-|x| >= R, t+|x| >= R")


def _exp(v: float) -> float:
    """exp(v), inf past the float range."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _log_corner(q: float, R: float) -> float:
    """log of 2^{1/q} (1+R), the corner of D_{a,b} on t - x; 2^{1/q} itself
    overflows for q below about 1/1024."""
    return math.log(2.0) / q + math.log(1.0 + R)


def _K(lead: float, p: float, log_C: float, M1: float) -> float:
    """lead/(p-1) + log C/(p^2-1) - S_p2(p) 2p log p + log M1, the form of
    both threshold functions and their minorants, from log C."""
    S = S_p2(p)  # first: it rejects p <= 1 before lead / (p - 1) divides by 0
    return lead / (p - 1) + log_C / ((p - 1) * (p + 1)) - S * 2 * p * math.log(p) + math.log(M1)


def _log_con(log_lead: float, p: float, log_C: float, M: float) -> float:
    """log of lead C^{1/(p+1)} p^{-2p S_p2(p) (p-1)} M^{p-1}, the form of both
    blow-up conditions, from the logs of its positive lead and of C."""
    S = S_p2(p)
    log_p_power = -2.0 * p * S * (p - 1) * math.log(p)
    return log_lead + log_C / (p + 1) + log_p_power + (p - 1) * math.log(M)


def K1(x: float, t: float, params: ModelParams, M1: float) -> float:
    """Case p(1+a)+b = 0 threshold function at C1 of (p, a, b); blow-up is forced where K1 > 0."""
    p, R = params.p, params.R
    _check_in_D(x, t, R)
    if not 1.0 + t - x > 1.0 + R:
        raise ValueError("need 1+t-x > 1+R for the double logarithm")
    return _K(math.log(math.log((1.0 + t - x) / (1.0 + R))), p, _log_C1(p, params.a, params.b), M1)


def K2(x: float, t: float, params: ModelParams, M1: float) -> float:
    """Case p(1+a)+b < 0 threshold function at C2 of (p, a, b), on the restricted region
    D_{a,b}: 1+t-x > 2^{1/q} (1+R), which no float reaches when that corner overflows."""
    p, a, b, R = params.p, params.a, params.b, params.R
    q = _case2_q(p, a, b, "K2")
    _check_in_D(x, t, R)
    log_T = math.log(1.0 + t - x)
    if not log_T > _log_corner(q, R):
        raise ValueError("(x, t) outside D_{a,b}")
    return _K(q * log_T, p, _log_C2(p, a, b), M1)


def con1_lhs(t0: float, p: float, M1: float, C1: float) -> float:
    """Left-hand side of the Case 1 blow-up condition at (t0/2, t0); +-inf past
    the float range."""
    lead = 0.5 * math.log(t0)
    if lead == 0:
        return 0.0
    return math.copysign(_exp(_log_con(math.log(abs(lead)), p, math.log(C1), M1)), lead)


def con2_lhs(t0: float, p: float, a: float, b: float, M1: float, C2: float) -> float:
    """Left-hand side of the Case 2 blow-up condition at (t0/2, t0), with lead
    (t0/2)^q; inf past the float range."""
    q = _case2_q(p, a, b, "con2")
    return _exp(_log_con(q * (math.log(t0) - math.log(2.0)), p, math.log(C2), M1))


def k1_minorant(t0: float, p: float, M1: float, C1: float) -> float:
    """K1 at (t0/2, t0) with the log factor replaced by its 2^-1 log(t0)
    minorant (valid for t0 > 4(1+R)^2); positive iff con1 holds."""
    return _K(math.log(0.5 * math.log(t0)), p, math.log(C1), M1)


def k2_minorant(t0: float, p: float, a: float, b: float, M1: float, C2: float) -> float:
    q = _case2_q(p, a, b, "k2_minorant")
    return _K(q * (math.log(t0) - math.log(2.0)), p, math.log(C2), M1)


def epsilon_thresholds(params: ModelParams, Cg: float) -> tuple[float, Optional[float]]:
    """Smallness thresholds eps_3 (Case 1) and eps_4 (Case 2) in closed form at C1 of (p, a, b).

    eps_3 = (2 B (1+R)^2)^{-1/(p(p-1))} and eps_4 = (B (2^{1/q} (1+R) - 1/2))^{-q/(p(p-1))},
    with B the factor of both blow-up conditions at M = Cg, are taken through
    logarithms: each is inf past the float range, and eps_4 tends to 2^{-1/(p(p-1))}
    as q -> 0+.  eps_4 is None when p(1+a)+b >= 0 (Case 2 does not apply).
    """
    p, a, b, R = params.p, params.a, params.b, params.R
    if Cg <= 0:
        raise ValueError("Cg must be positive")
    if not R >= 1:
        raise ValueError("need R >= 1")
    log_B = _log_con(0.0, p, _log_C1(p, a, b), Cg)
    r = p * (p - 1)
    eps3 = _exp(-(math.log(2.0) + log_B + 2.0 * math.log(1.0 + R)) / r)
    q = -(p * (1 + a) + b)
    eps4 = None
    if q > 0:
        # q log of the radicand, with q log 2^{1/q} = log 2 taken out; R >= 1 keeps
        # the radicand above B (2 (1+R) - 1/2) > 0
        tail = math.log(1.0 + R) + math.log1p(-0.5 * math.exp(-_log_corner(q, R)))
        eps4 = _exp(-(math.log(2.0) + q * (log_B + tail)) / r)
    return eps3, eps4


# --- phase diagrams ------------------------------------------------------

INFTY = "infinity"


def dt_table(p: Number, a: Number, b: Number) -> tuple[str, Optional[float]]:
    """Lifespan table for the |u_t|^p problem (the equation solved here)."""
    regime = classify_regime(p, a, b)
    labels = {
        RegimeKind.global_: INFTY,
        RegimeKind.exp_p_minus_1: "exp(C eps^-(p-1))",
        RegimeKind.exp_p_p_minus_1: "exp(C eps^-p(p-1))",
        RegimeKind.poly_a: "C eps^-(p-1)/(-a)",
        RegimeKind.poly_pab: "C eps^-p(p-1)/(-p(1+a)-b)",
    }
    return labels[regime.kind], regime.exponent


def u_nonzero_table(p: Number, a: Number, b: Number) -> tuple[str, Optional[float]]:
    """Lookup table for the cited |u|^p problem when the total integral of g
    is nonzero."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    if a > 0 and a + b > 0:
        return INFTY, None
    if (a + b == 0 and a > 0) or (a == 0 and b > 0):
        return "exp(C eps^-(p-1))", None
    if a == 0 and b == 0:
        return "exp(C eps^-(p-1)/2)", None
    if a < 0 and b > 0:
        return "C eps^-(p-1)/(-a)", float((p - 1) / (-a))
    if a < 0 and b == 0:
        return "phi^-1(C eps^-(p-1))", None
    if a + b < 0 and b < 0:
        return "C eps^-(p-1)/(-a-b)", float((p - 1) / (-(a + b)))
    raise AssertionError(f"unreachable: a={a}, b={b}")


def u_zero_table(p: Number, a: Number, b: Number) -> tuple[str, Optional[float]]:
    """Lookup table for the cited |u|^p problem when g integrates to zero."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    if a > 0 and a + b > 0:
        return INFTY, None
    if a == 0 and b > 0:
        return "exp(C eps^-(p-1))", None
    if a + b == 0 and a > 0:
        return "exp(C eps^-p(p-1))", None
    if a == 0 and b == 0:
        return "exp(C eps^-p(p-1)/(p+1))", None
    if a < 0 and b > 0:
        return "C eps^-(p-1)/(-a)", float((p - 1) / (-a))
    if a < 0 and b == 0:
        return "psi1^-1(C eps^-p(p-1))", None
    if a < 0 and b < 0:
        return "C eps^-p(p-1)/(-pa-b)", float(p * (p - 1) / (-(p * a + b)))
    if a == 0 and b < 0:
        return "psi2^-1(C eps^-p(p-1))", None
    if a + b < 0 and a > 0:
        return "C eps^-p(p-1)/(-a-b)", float(p * (p - 1) / (-(a + b)))
    raise AssertionError(f"unreachable: a={a}, b={b}")


_TABLES = {"dt_table": dt_table, "u_nonzero_table": u_nonzero_table, "u_zero_table": u_zero_table}


def phase_diagram(
    p: Number,
    a_range: tuple[Number, Number],
    b_range: tuple[Number, Number],
    n_a: int,
    n_b: int,
    mode: str = "dt_table",
) -> list[tuple[Fraction, Fraction, str, Optional[float]]]:
    """Grid of regime labels over the (a, b)-plane.

    Cell coordinates are exact rationals so that boundary lines (a = 0,
    b = 0, p(1+a)+b = 0, a+b = 0) are classified by the tables' own exact
    (in)equalities with tolerance zero.
    """
    if n_a < 2 or n_b < 2:
        raise ValueError("n_a and n_b must be >= 2")
    if not all(math.isfinite(v) for v in (p, *a_range, *b_range)):
        raise ValueError("p and the ends of both ranges must be finite")
    table = _TABLES.get(mode)
    if table is None:
        raise ValueError(f"unknown mode {mode!r}")
    pf = Fraction(p)
    a_lo, a_hi = Fraction(a_range[0]), Fraction(a_range[1])
    b_lo, b_hi = Fraction(b_range[0]), Fraction(b_range[1])
    rows = []
    for i in range(n_a):
        a = a_lo + (a_hi - a_lo) * i / (n_a - 1)
        for j in range(n_b):
            b = b_lo + (b_hi - b_lo) * j / (n_b - 1)
            label, exponent = table(pf, a, b)
            rows.append((a, b, label, exponent))
    return rows


def phase_diagram_csv(rows) -> str:
    lines = ["a,b,label,exponent"]
    for a, b, label, exponent in rows:
        exp_str = "" if exponent is None else f"{exponent:.12g}"
        lines.append(f"{float(a):.12g},{float(b):.12g},{label},{exp_str}")
    return "\n".join(lines) + "\n"
