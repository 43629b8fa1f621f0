"""graphgrowth: certified area growth of minimal graphs over C.

The graph of a holomorphic function f over a plane domain is a minimal
surface in C^2 = R^4; its area inside the ball B_r equals the integral
of 1 + |f'|^2 over the sublevel domain {|z|^2 + |f(z)|^2 <= r^2}.  This
package measures, certifies and classifies that growth for three model
functions (sin(e^z), sin(e^(z^2)), e^z) and generates the inductive
parameter schedules used to transplant the growth rates into R^3
constructions.

Layers: families (overflow-safe evaluation and rigorous rectangle
enclosures), quadrature (certified sublevel-set integration), packets
(disk certificates and counting bounds), growth (model fitting and
witnesses), schedule (induction tables and diagnostics), svgplot + cli
(serialization surface).  Cells are enclosed and classified in arrays
only, as edge tables and (column, row) addresses, the one format of the
families cell kernel; a single cell is a batch of one.  A schedule is
one Schedule of numpy columns, which diagnostics, queryable_range and
completeness_trend take as built.
"""

from .families import (
    GraphFamily,
    LogScaledComplex,
    eval_f,
    eval_fprime,
)
from .growth import (
    GrowthFit,
    GrowthModel,
    GrowthSample,
    InsufficientSamplesError,
    NonPositiveAreaError,
    NoWitnessError,
    SampleSource,
    classify_growth,
    fit_growth,
    witness_constants,
)
from .packets import (
    DELTA_MAX,
    F_TARGET,
    CertifyMethod,
    DiskPacket,
    DisjointnessReport,
    PacketCertificate,
    certify_packet,
    certify_packets,
    count_packets_in_ball,
    fprime_target,
    make_packet,
    packet_area_lower,
    packet_growth_lower_bound,
    verify_disjoint,
    verify_ez_minus_one_bound,
)
from .quadrature import (
    RADIUS_CAPS,
    AreaEstimate,
    GuardedResourceError,
    QuadConfig,
    QuadMode,
    RadiusCapError,
    SublevelDomain,
    ez_area_closed_bound,
    graph_area,
)
from .schedule import (
    InsufficientRowsError,
    RadiiVariant,
    Schedule,
    ScheduleConfig,
    ScheduleDiagnostics,
    ScheduleRow,
    build_schedule,
    check_hyp2,
    completeness_trend,
    diagnostics,
    queryable_range,
    sigma_residual,
    solve_sigma,
)

__version__ = "0.1.0"

__all__ = [
    "GraphFamily", "LogScaledComplex", "eval_f", "eval_fprime",
    "SublevelDomain", "QuadConfig", "QuadMode", "AreaEstimate",
    "GuardedResourceError", "RadiusCapError", "RADIUS_CAPS",
    "graph_area", "ez_area_closed_bound",
    "DiskPacket", "PacketCertificate", "CertifyMethod", "DisjointnessReport",
    "DELTA_MAX", "F_TARGET", "make_packet", "fprime_target", "certify_packet",
    "certify_packets", "verify_ez_minus_one_bound", "verify_disjoint",
    "count_packets_in_ball", "packet_area_lower", "packet_growth_lower_bound",
    "GrowthModel", "SampleSource", "GrowthSample", "GrowthFit",
    "InsufficientSamplesError", "NonPositiveAreaError", "NoWitnessError",
    "fit_growth", "classify_growth", "witness_constants",
    "RadiiVariant", "ScheduleConfig", "ScheduleRow", "Schedule",
    "ScheduleDiagnostics",
    "InsufficientRowsError", "solve_sigma", "sigma_residual", "check_hyp2",
    "build_schedule", "diagnostics", "completeness_trend", "queryable_range",
    "__version__",
]
