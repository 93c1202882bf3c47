"""Exception types shared across the toolkit."""


class KinReduceError(Exception):
    """Base class for all toolkit errors.  A row-batched kernel that
    fails sets ``row`` to the lowest failing row of its stack."""

    row: int | None = None


class ParameterError(KinReduceError):
    """An argument is outside its documented range or shape."""


class RealizabilityError(KinReduceError):
    """A distribution or moment set is not physically admissible
    (nonpositive density/temperature, negative ansatz values, ...)."""


class InversionError(KinReduceError):
    """Newton-type parameter recovery failed to converge.  For a batch,
    ``rows`` lists the failed rows and ``omega`` holds every row's
    parameters, the failed rows at their last iterate."""

    def __init__(self, message, rows=None, omega=None):
        super().__init__(message)
        self.rows = rows
        self.omega = omega


class DegenerateChartError(KinReduceError):
    """The tangent-space Gram matrix is not positive definite."""


class ConfigurationError(KinReduceError):
    """A scenario/space configuration is inconsistent (bad quadrature
    order, metric-weight overflow, unknown config keys, ...)."""


class StepError(KinReduceError):
    """A solver step failed; carries the offending cell index."""

    def __init__(self, message, cell=None, time=None):
        super().__init__(message)
        self.cell = cell
        self.time = time


class BlowUpError(StepError):
    """Propagation speed ran away; the time step underflowed."""
