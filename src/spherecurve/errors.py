"""Exception hierarchy shared by all spherecurve modules."""


class SphereCurveError(Exception):
    """Base class for all library errors."""


class DegenerateProjection(SphereCurveError):
    """Point too close to the stereographic projection center."""


class NotInHull(SphereCurveError):
    """The target is not strictly inside the convex hull of the points."""


class EmptyDual(SphereCurveError):
    """No lattice direction qualifies as a containing hemisphere."""


class NearZeroCentroid(SphereCurveError):
    """Dual-cone centroid too close to the origin to define a barycenter."""


class RadiusOutOfBounds(SphereCurveError):
    """Requested circle radius lies outside the admissible (rho2, rho1) range."""


class CurvatureOutOfBounds(SphereCurveError):
    """Sampled geodesic curvature escapes the open (kappa1, kappa2) interval."""


class NonPositiveSpeed(SphereCurveError):
    """Internal check: integrated speed must stay strictly positive."""


class NotClosed(SphereCurveError):
    """Operation requires a closed curve (matching endpoint frames)."""


class AmbiguousParity(SphereCurveError):
    """Endpoint lift is too far from +/- the initial lift; closure is broken."""


class ThetaOutOfRange(SphereCurveError):
    """Translation offset would make the curve singular."""


class WindingResidual(SphereCurveError):
    """Unwrapped tangent angle does not land near an integer multiple of 2*pi."""


class NoGapFound(SphereCurveError):
    """No annulus gap between the caustic cloud and its antipode at this resolution."""


class FiberCountMismatch(SphereCurveError):
    """Two independent witnesses for the sheet count disagree."""


class CurvatureBoundTooTight(SphereCurveError):
    """Bound excludes the piecewise-circular family needed for the homotopy."""


class ParameterOverlap(SphereCurveError):
    """Loop-insertion window does not fit inside the parameter domain."""


class NonpositiveRotation(SphereCurveError):
    """Planar homotopy requires a strictly positive rotation number."""


class NotCondensed(SphereCurveError):
    """Operation requires a condensed curve."""


class NotDiffuse(SphereCurveError):
    """Operation requires a diffuse curve."""


class NotNonCondensed(SphereCurveError):
    """Operation requires a non-condensed curve."""


class ContinuationDiverged(SphereCurveError):
    """Newton continuation failed to restore the endpoint frame."""


class DegenerateSimplex(SphereCurveError):
    """Chosen caustic points are not in general position."""


class BudgetExceeded(SphereCurveError):
    """Accumulated graft length exceeded the caller's budget."""


class BoundViolation(SphereCurveError):
    """Total curvature exceeded the non-diffuse bound; numerics are inconsistent."""


class MeridianMiss(SphereCurveError):
    """A covering meridian failed to cross a band boundary."""


class NonConvergence(SphereCurveError):
    """Iteration did not converge within its hard limit."""


class TrackCrossing(SphereCurveError):
    """Nearest-boundary geodesics cross inside the band; resolution failure."""


class StageToleranceFailure(SphereCurveError):
    """A homotopy stage violated its curvature margin."""


class DomainError(SphereCurveError):
    """Arguments violate a documented precondition."""


class UnitDriftWarning(UserWarning):
    """Input drifted off the unit sphere/quaternion group and was renormalized."""
