"""Exception types shared across the toolkit; a rule that does not apply raises PreconditionViolated."""


class CertifyError(Exception):
    """Base class for every toolkit-specific error."""


class NonPositiveDeterminant(CertifyError):
    """Raw matrix has determinant <= 0 and defines no half-plane isometry."""


class CoincidentEndpoints(CertifyError):
    """Two boundary points expected to be distinct coincide."""


class DegenerateCrossRatio(CertifyError):
    """Cross ratio is 0, 1 or infinity, so no angle/distance is defined."""


class AxesCross(CertifyError):
    """Lines cross, but the operation needs disjoint lines."""


class SharedEndpoint(CertifyError):
    """Lines share a boundary endpoint."""


class OverlappingArcs(CertifyError):
    """Arc union constructor received arcs with intersecting closures."""


class PreconditionViolated(CertifyError):
    """A stated hypothesis of the decision procedure fails; the message says which."""


class NotHyperbolic(PreconditionViolated):
    """Operation requires a hyperbolic transformation."""


class AxesDoNotCross(PreconditionViolated):
    """Crossing-pair construction needs crossing axes (cross ratio < 0)."""


class ThresholdNotMet(PreconditionViolated):
    """Translation lengths fall short of the constructive threshold."""


class AxesNotDisjoint(PreconditionViolated):
    """Pair operation needs disjoint axes with cross ratio above 1."""


class VerificationFailed(CertifyError):
    """A constructed certificate did not survive independent re-verification."""


class SearchExhausted(CertifyError):
    """Bounded witness search ended without a hit; signals a violated precondition."""


class BudgetExceeded(CertifyError):
    """Word enumeration hit its configured budget."""


class InvalidMatrix(CertifyError):
    """Raw matrix is not usable: malformed, non-finite, beyond float range or singular."""


class SingularMatrix(InvalidMatrix, NonPositiveDeterminant):
    """Raw matrix has determinant zero: unusable input that defines no isometry."""


class ParseError(CertifyError):
    """Input file or value could not be parsed; the message carries the field."""
