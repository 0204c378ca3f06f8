"""Exception taxonomy shared by all diffnet modules."""


class DiffnetError(Exception):
    """Base class for all diffnet errors."""


class ValidationError(DiffnetError, ValueError):
    """Input data violates a structural contract (shape, symmetry, stochasticity)."""


class PreconditionError(DiffnetError, ValueError):
    """A documented operation precondition does not hold."""


class NumericalError(DiffnetError, RuntimeError):
    """A numerical routine failed (non-convergence, loss of definiteness)."""


class InstabilityError(DiffnetError, RuntimeError):
    """A closed-form evaluation was requested for an unstable configuration."""
