"""Solver and lifespan laboratory for the 1D semilinear wave equation of
derivative type with characteristic weights."""

from .core import (
    CharField,
    Cause,
    Family,
    GridSpec,
    InitialData,
    LifespanEstimate,
    ModelParams,
    Regime,
    RegimeKind,
    Status,
    load_config,
    load_config_file,
    validate,
)
from .solver import PicardReport, march, march_ladder, picard_iterate, pde_residual, reconstruct_u
from .oracle import compare_fields, leapfrog_solve
from .theory import (
    K1,
    K2,
    a_n_closed_form,
    classify_regime,
    con1_lhs,
    con2_lhs,
    epsilon_thresholds,
    k1_minorant,
    k2_minorant,
    lifespan_bound,
    phase_diagram,
)
from .harness import fit_exponent, make_epsilon_ladder, run_cli, sweep, verify_apriori

__all__ = [
    "CharField",
    "Cause",
    "Family",
    "GridSpec",
    "InitialData",
    "K1",
    "K2",
    "LifespanEstimate",
    "ModelParams",
    "PicardReport",
    "Regime",
    "RegimeKind",
    "Status",
    "a_n_closed_form",
    "classify_regime",
    "compare_fields",
    "con1_lhs",
    "con2_lhs",
    "epsilon_thresholds",
    "fit_exponent",
    "k1_minorant",
    "k2_minorant",
    "leapfrog_solve",
    "lifespan_bound",
    "load_config",
    "load_config_file",
    "make_epsilon_ladder",
    "march",
    "march_ladder",
    "pde_residual",
    "phase_diagram",
    "picard_iterate",
    "reconstruct_u",
    "run_cli",
    "sweep",
    "validate",
    "verify_apriori",
]

__version__ = "0.1.0"
