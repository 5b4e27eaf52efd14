"""Gauge integration of convex-compact-set-valued maps on direction grids.

Sets live as support-function vectors on a fixed grid of directions, where
Minkowski arithmetic is exact vector arithmetic and Hausdorff distance is
the sup norm.  Integrals (Henstock, McShane, Birkhoff, variational) are
limits of Riemann sums over delta-fine tagged partitions built by Cousin
bisection, with convergence verdicts from Cauchy residuals, tag-robustness
probes, and explicit divergence rules.  The corpus module curates test
multifunctions around the HK-not-Lebesgue derivative of t^2 sin(t^-2),
and the decomposition module verifies the selection-plus-remainder
theorems executably.
"""

from .convex_sets import (
    CANON_TOL,
    DirectionGrid,
    ExactIntervalMap,
    Primitive,
    SupportSet,
    canonical_values,
    contains_point,
    from_points,
    hausdorff,
    make_ball,
    make_interval,
    make_point,
    minkowski_add,
    norm,
    scale,
    steiner_point,
    translate,
)
from .corpus import (
    F,
    F_prime,
    MultifunctionSpec,
    SIN_1,
    abs_F_prime,
    check_flag_consistency,
    corpus_get,
    corpus_names,
    named_parts,
    named_schedule,
)
from .decomposition import (
    DecompositionReport,
    DerivedMultifunction,
    Selection,
    argmax_selection,
    riemann_measurability_probe,
    singleton_of,
    steiner_selection,
    subtract_selection,
    verify_decomposition,
)
from .errors import (
    DepthExceeded,
    EmptySupportSet,
    GaugeNotPositive,
    GaugesetError,
    GridMismatch,
    NotASelection,
    PackingTruncated,
)
from .integrators import (
    DIVERGENCE_BOUND,
    GaugeSchedule,
    IntegrationReport,
    birkhoff_integrate,
    build_primitive,
    directional_profile,
    henstock_integrate,
    mcshane_integrate,
    measurable_uniform_schedule,
    origin_schedule,
    scalar_hk,
    uniform_schedule,
    variational_measure_estimate,
    vh_check,
)
from .partitions import (
    Gauge,
    MeasurablePartition,
    TaggedPartition,
    cousin_build,
    is_delta_fine,
    measurable_partition,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
