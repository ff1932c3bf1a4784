"""Exception hierarchy.

Every bad user input raises ValidationError itself (CLI exit code 2, which
prints only the message).  Violated internal contracts such as failed exact
divisions raise a subclass of EngineError (exit code 3), whose diagnostic
names the class.  ``located`` puts where an engine error happened, such as
the step and vertex of a pass, before its detail, keeping its class.
"""
from contextlib import contextmanager


class WeylseedError(Exception):
    pass


class ValidationError(WeylseedError):
    pass


class EngineError(WeylseedError):
    pass


class NotDivisibleError(EngineError):
    pass


class NotPolynomialAfterSubstitutionError(EngineError):
    pass


class TermLimitError(EngineError):
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


@contextmanager
def located(where: str):
    """Re-raise an EngineError of the block as its own class, "{where}: " first."""
    try:
        yield
    except EngineError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
