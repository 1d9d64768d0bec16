"""Exception taxonomy shared across the engine."""


class GeoformalError(Exception):
    """Base class for all engine errors."""


class DimensionMismatchError(GeoformalError):
    pass


class ScalarKindError(GeoformalError):
    """A float reached exact arithmetic: forms take ints and Fractions only."""


class GradeError(GeoformalError):
    """Operation requires a homogeneous input of a particular grade."""


class MetricError(GeoformalError):
    """Coframe metric rejected: an entry that is not positive, or a volume
    scale with no rational square root."""


class LieAlgebraError(GeoformalError):
    """Structure constants violate antisymmetry/Jacobi, or a subalgebra check failed."""


class SpaceError(GeoformalError):
    """Invalid homogeneous-space descriptor (e.g. a metric that is not invariant)."""


class RingError(GeoformalError):
    """Malformed ring presentation (inhomogeneous relation, degree overflow...)."""


class PatternInapplicableError(GeoformalError):
    """A certificate family was requested for parameters outside its hypotheses."""


class CertificateUnavailableError(GeoformalError):
    """No valid certificate could be assembled; carries the failing step."""

    def __init__(self, message, failed_step=None, witness=None):
        super().__init__(message)
        self.failed_step = failed_step
        self.witness = witness


class ConfigError(GeoformalError):
    """Malformed CLI configuration input."""
