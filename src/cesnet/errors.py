"""Exception hierarchy shared by all cesnet modules.

Every domain failure raises a subclass of :class:`CesnetError`, so callers
(and the CLI) can distinguish domain outcomes from programming errors.
"""


class CesnetError(Exception):
    """Base class for all domain errors raised by cesnet."""


# --- data ingestion ---------------------------------------------------------

class MalformedTable(CesnetError):
    """CSV input could not be parsed into the expected shape."""


class NegativeCoefficient(CesnetError):
    """An input-output or primary-factor coefficient is negative."""


class ColumnSumViolation(CesnetError):
    """A column of the IO table deviates from the adding-up constraint."""


class InvalidPreferences(CesnetError, ValueError):
    """Household expenditure shares or curvature are not valid."""


# --- equilibrium ------------------------------------------------------------

class NonPositivePrice(CesnetError):
    """A price vector contains a zero or negative element."""


class NoPositiveSolution(CesnetError):
    """A closed-form equilibrium exists only outside the positive orthant."""


class SingularSystem(CesnetError):
    """A linear system required by a closed form is not invertible."""


class NotAnEquilibrium(CesnetError):
    """Structure formulas were evaluated at a non-equilibrium price vector."""


class NotConverged(CesnetError):
    """The recursive solver diverged or ran out of iterations."""


# --- simulation and series utilities ----------------------------------------

class AllSamplesUnviable(CesnetError):
    """Every Monte Carlo sample produced an unviable equilibrium."""


class TooFewSamples(CesnetError):
    """Not enough samples for the requested summary."""


class DegenerateSample(CesnetError):
    """Sample has zero variance; the statistic is undefined."""


class SeriesTooShort(CesnetError):
    """Time series is shorter than the estimator requires."""


class NonPositiveValue(CesnetError):
    """A level series required to be strictly positive is not."""


# --- econometrics -----------------------------------------------------------

class SingletonEntity(CesnetError):
    """An entity has fewer than two included observations."""


class DuplicateObservation(CesnetError):
    """A panel holds more than one row for one (entity, period) pair."""


class UnknownInstrument(CesnetError, ValueError):
    """An instrument name or transform token names no panel column."""


class RankDeficient(CesnetError):
    """A regression matrix is rank deficient after the within transform, or
    a fit has no residual degrees of freedom."""


class GammaNearZero(CesnetError):
    """Productivity recovery is singular at the Cobb-Douglas point."""


class WeakInstrumentWarning(UserWarning):
    """First-stage F statistic fell below the rule-of-thumb threshold of 10."""
