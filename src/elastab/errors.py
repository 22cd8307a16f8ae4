"""Exception hierarchy shared by every module."""


class ElastabError(Exception):
    """Base class for all package errors."""


class InvalidMaterialError(ElastabError):
    """Material coefficient bounds violate positivity/finiteness requirements."""


class UnsupportedDomainError(ElastabError):
    """Domain geometry outside the supported ball/annulus/obstacle family."""


class InadmissibleMultiplierError(ElastabError):
    """Multiplier perturbation too large: eta + epsilon >= 2 (gamma <= 0)."""


class InadmissibleCoefficientsError(ElastabError):
    """Radial growth of the coefficients violates the admissibility budget."""


class DomainEvaluationError(ElastabError):
    """A coefficient field could not be sampled where requested."""


class SingularityError(ElastabError):
    """Kernel evaluated at (or convolved through) the source point without a rule."""


class MeshError(ElastabError):
    """Degenerate mesh parameters or a singular element Jacobian."""


class SolverError(ElastabError):
    """Linear solve failed to reach the residual contract."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IterationError(ElastabError):
    """Power iteration did not converge within the allotted iterations."""

    def __init__(self, message, last_iterates=None):
        super().__init__(message)
        self.last_iterates = last_iterates


class ConfigError(ElastabError):
    """Malformed configuration document or unusable CLI arguments."""
