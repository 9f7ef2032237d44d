"""Exception types shared across the package."""


class KamError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(KamError, ValueError):
    """A field, map or point holds nan or inf."""


class ConfigError(KamError):
    """Malformed or inconsistent experiment configuration."""


class NotContractive(KamError):
    """Displacement too large for the fixed-point inversion to contract."""


class NoConvergence(KamError):
    """An iterative routine exhausted its budget without meeting tolerance."""


class DegenerateVector(KamError):
    """Rotation vector is resonant (or numerically indistinguishable from it)."""


class DCViolation(KamError):
    """Rotation vector fails the small-divisor lower bound at the needed range."""


class DivisorTooSmall(KamError):
    """A divisor e^(2*pi*i*k.alpha) - 1 is below the safe floor at some needed k."""


class CohomologyResidualError(KamError):
    """Solved corrector does not satisfy its defining equation to tolerance."""


class SmallnessViolated(KamError):
    """Step precondition C * gamma * N^(2*tau+d+2) * eps0 < 1 fails."""


class EmptyWindow(KamError):
    """No admissible mu exists for the given (sigma, lambda, nu)."""


class InfeasibleParams(KamError):
    """Scheduler parameters violate the standing inequalities."""


class OutOfRegime(KamError):
    """Generated or supplied map is outside the perturbative regime."""


class ResidualTooLarge(KamError):
    """A verification residual exceeds its stated tolerance."""
