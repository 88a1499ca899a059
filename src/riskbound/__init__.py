"""Sharp worst-case bounds for distortion riskmetrics, entropies, weighted
entropies, premium principles and entropy shortfalls when only the mean and
variance of the underlying distribution are known."""

from .distortion import (
    DistortionFn,
    TransformedGHat,
    WeightSpec,
    catalog_lookup,
    custom_distortion,
    custom_transform,
    default_transform,
    eval_weight,
    family_names,
    family_spec,
    linear_weight,
    make_ghat,
    unit_weight,
)
from .envelope import (
    PiecewiseEnvelope,
    convex_envelope_analytic,
    convex_envelope_numeric,
    envelope_table,
    slope_l2_norm,
    solve_breakpoint,
)
from .bounds import (
    BoundResult,
    MomentInfo,
    ShortfallSpec,
    closed_form_sup,
    premium_bound,
    shortfall_bound,
    shortfall_value,
    worst_case_bound,
    worst_case_quantile,
    worst_case_weighted,
)
from .oracle import (
    QuantileFn,
    StressReport,
    feasibility_stress,
    quantile_moments,
    riskmetric_of_quantile,
    weighted_entropy_of_quantile,
)
from .ingest import (
    ReturnSeries,
    build_report,
    load_returns_csv,
    prices_to_simple_returns,
    sample_moments,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
