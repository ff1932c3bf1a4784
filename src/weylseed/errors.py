"""Exception hierarchy.

ValidationError covers bad user input (CLI exit code 2); EngineError covers
violated internal contracts such as failed exact divisions (exit code 3).
"""


class WeylseedError(Exception):
    pass


class ValidationError(WeylseedError):
    pass


class EngineError(WeylseedError):
    pass


class NotReducedError(ValidationError):
    pass


class NonDominantError(ValidationError):
    pass


class NotTypeAError(ValidationError):
    pass


class NotAcyclicError(ValidationError):
    pass


class LinearAnCaveatError(ValidationError):
    """The double Coxeter word is not reduced for linearly oriented type A."""


class FrozenIndexError(ValidationError):
    pass


class VarTableMismatchError(ValidationError):
    pass


class NotDivisibleError(EngineError):
    pass


class NonUnitNegativePowerError(ValidationError):
    pass


class NotPolynomialAfterSubstitutionError(EngineError):
    pass


class NonIntegralCoefficientError(EngineError):
    pass


class NegativeEntryError(EngineError):
    pass


class StepMismatchError(EngineError):
    pass


class IdentityFailsError(EngineError):
    pass


class MismatchError(EngineError):
    pass
