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
    """Kernel evaluated at the source point r = 0, where it has no finite value."""


class MeshError(ElastabError):
    """Degenerate mesh parameters or a singular element Jacobian."""


class SolverError(ElastabError):
    """A linear system could not be factored or solved: the factor is
    singular, or a solve missed the backward-error contract (its message
    says "residual")."""


class IterationError(ElastabError):
    """An iterative estimate was not certified within the allotted steps."""

    def __init__(self, message, last_iterates=None):
        super().__init__(message)
        self.last_iterates = last_iterates


class ConfigError(ElastabError):
    """Malformed configuration document or unusable CLI arguments."""
