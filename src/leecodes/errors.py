"""Exception taxonomy shared by all modules, and the one enumeration budget check."""


class LeecodesError(Exception):
    """Base class for all library errors."""


class NonPrimeError(LeecodesError):
    """The field characteristic is not prime."""


class EvenCharacteristicError(LeecodesError):
    """The field characteristic is even (q must be an odd prime)."""


class DegreeError(LeecodesError):
    """Invalid extension degree (must be >= 1)."""


class ZeroInverseError(LeecodesError):
    """Multiplicative inverse of zero requested."""


class ContextMismatchError(LeecodesError):
    """Operands belong to different field/ring contexts, or are out of range."""


class ExtensionContextError(LeecodesError):
    """Operation requires the base ring (degree-1 context)."""


class ZeroLeadingCoefficientError(LeecodesError):
    """Quadratic character-sum requires a nonzero leading coefficient."""


class ZeroParameterError(LeecodesError):
    """A parameter that must be nonzero was zero."""


class BudgetExceededError(LeecodesError):
    """Requested enumeration exceeds the configured operation budget."""


DEFAULT_OPS_BUDGET = 1_000_000_000


def check_budget(cost: int, budget: int, what: str) -> None:
    if cost > budget:
        raise BudgetExceededError(f"{what} needs ~{cost} elementary steps, budget is {budget}")


class UnsupportedParametersError(LeecodesError):
    """Closed-form tables are not defined for these parameters."""


class NonIntegralValueError(LeecodesError):
    """Exactness tripwire: a closed form that must be an integer was not."""


class NonIntegralExponentError(LeecodesError):
    """Exactness tripwire: an enumerator exponent that must be a nonnegative integer was not."""


class LengthMismatchError(LeecodesError):
    """Vectors of different lengths where equal lengths are required."""


class DegenerateSpectrumError(LeecodesError):
    """Spectrum has no nonzero weight."""
