"""Numerical tests for positive and negative definiteness of functions on
intervals, integral representations of Bernstein-type functions, and
reflection positivity on symmetric intervals.

The package is organized around small, composable checks: Gram-matrix
eigenvalue tests (`kernelcheck`), finite-difference monotonicity tests
(`diffcalc`), measure quadrature with certified truncation bounds
(`measure`), synthesis and recovery of integral representations
(`levykhin`), reflection positivity/negativity (`reflection`), a catalog of
reference functions (`catalog`), and a CLI (`cli`).
"""

__version__ = "0.1.0"

from .errors import (
    ConsistencyError,
    DivergentIntegral,
    DomainError,
    InvalidMeasure,
    InvalidRep,
    NonFiniteEntry,
    NotConvex,
    NotIncreasing,
    NotNegativeDefinite,
    NotReflectionPositive,
    NotSymmetric,
    OrderTooHigh,
    PosdefkitError,
    UnknownName,
)
from .funcs import FuncHandle, chebyshev_grid, evenize, from_callable, uniform_grid
from .measure import (
    Envelope,
    FuncDensity,
    GriddedDensity,
    HeadBound,
    LaplaceValue,
    Measure,
    density_from_spec,
    laplace,
    laplace_deriv,
    measure_from_json,
    measure_to_json,
    one_wedge_integral,
    point_mass,
    tail_mass,
    total_mass,
)
from .kernelcheck import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    KernelGram,
    PositivityVerdict,
    QuotientSpace,
    cnd_check,
    default_tol,
    gram_custom,
    gram_minus,
    gram_plus,
    psd_check,
    quotient_space,
    schoenberg_check,
)
from .diffcalc import (
    bernstein_check,
    completely_monotone_check,
    convex_decreasing_check,
    delta_k,
    derivative,
    hankel_check,
)
from .levykhin import (
    BernsteinRep,
    LKIncreasingRep,
    LKIntervalRep,
    analyze_increasing,
    analyze_interval,
    bernstein_handle,
    bernstein_to_increasing,
    default_lambda_grid,
    e_lambda,
    f_lambda,
    increasing_handle,
    interval_handle,
    reflection_negative_handle,
    rep_from_json,
    rep_to_json,
    synth_bernstein,
    synth_increasing,
    synth_interval,
    synth_reflection_negative,
)
from .reflection import (
    BoundaryReport,
    ReflectionReport,
    boundary_derivative_check,
    double_integral_rp,
    extendable_check,
    periodic_rp,
    polya_check,
    reflection_negative_check,
    reflection_positive_check,
)
from .catalog import (
    CatalogEntry,
    FlagClaim,
    default_entries,
    get,
    lk_synth_value,
    names,
    run_flag_check,
)
