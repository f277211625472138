"""Closed curves on S^2 with geodesic curvature constrained to an interval.

Core objects: admissible curves driven by L^2-style controls, their frames
lifted to S^3, translations and bands, condensed/diffuse classification into
connected components, and the explicit homotopies (bending, loop spreading,
Mobius shrinking, grafting, good-band retraction).
"""

from .tolerances import DEFAULT_TOL, ToleranceProfile
from .curves import (
    AdmissibleCurve,
    ControlPair,
    CurvatureBounds,
    LiftParity,
    UNBOUNDED,
    arccot,
    cot,
    control_transforms,
    controls_from_functions,
    curve_from_json,
    curve_from_points,
    curve_to_json,
    integrate_curve,
    lift_parity,
    load_curve,
    make_circle,
    reparametrize_arclength,
    reparametrize_by_curvature,
    total_curvature,
)
from .bands import caustic_band, regular_band, translate_curve
from .classify import (
    ComponentLabel,
    CondensedStatus,
    classify_component,
    component_count,
    condensed_axis,
    condensed_status,
    reduce_to_k0,
    rotation_number_condensed,
    rotation_number_nondiffuse,
)
from .homotopy import (
    HomotopyPath,
    ValidationReport,
    add_loops,
    bend_k_equator,
    planar_wg_homotopy,
    shrink_condensed,
    spread_loops,
    validate_path,
)
from .grafting import (
    graft_antipodal_circles,
    graft_simplex_step,
    graft_until_resolved,
)
from .goodbands import (
    band_from_condensed,
    central_curve,
    collapse_condensed_negative,
    contract_band,
    retract_to_good,
)

__all__ = [
    "AdmissibleCurve",
    "ComponentLabel",
    "CondensedStatus",
    "ControlPair",
    "CurvatureBounds",
    "DEFAULT_TOL",
    "HomotopyPath",
    "LiftParity",
    "ToleranceProfile",
    "UNBOUNDED",
    "ValidationReport",
    "add_loops",
    "arccot",
    "band_from_condensed",
    "bend_k_equator",
    "caustic_band",
    "central_curve",
    "classify_component",
    "collapse_condensed_negative",
    "component_count",
    "condensed_axis",
    "condensed_status",
    "contract_band",
    "control_transforms",
    "controls_from_functions",
    "cot",
    "curve_from_json",
    "curve_from_points",
    "curve_to_json",
    "graft_antipodal_circles",
    "graft_simplex_step",
    "graft_until_resolved",
    "integrate_curve",
    "lift_parity",
    "load_curve",
    "make_circle",
    "planar_wg_homotopy",
    "reduce_to_k0",
    "regular_band",
    "reparametrize_arclength",
    "reparametrize_by_curvature",
    "retract_to_good",
    "rotation_number_condensed",
    "rotation_number_nondiffuse",
    "shrink_condensed",
    "spread_loops",
    "total_curvature",
    "translate_curve",
    "validate_path",
]

__version__ = "0.1.0"
