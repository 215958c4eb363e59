"""Exception hierarchy.

Three user-facing families map onto CLI exit codes: ParseError -> 2,
PreconditionError -> 3, LimitError -> 4.  InternalCheckError marks
integrality / stability assertions that must never fire on valid input;
it is deliberately left uncaught so a violation surfaces as a crash.
"""


class ZetaError(Exception):
    pass


class PreconditionError(ZetaError):
    pass


class LimitError(ZetaError):
    pass


class InternalCheckError(ZetaError):
    pass


class ParseError(ZetaError):
    """Raised on malformed polynomial text; carries the offset of the bad token."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class UnknownVariable(ParseError):
    pass


# -- precondition violations (exit 3) --

class CompositeP(PreconditionError):
    pass


class ReducibleModulus(PreconditionError):
    pass


class MultivariateInput(PreconditionError):
    pass


class ConstantInput(PreconditionError):
    pass


class NotMonic(PreconditionError):
    pass


class RingNotField(PreconditionError):
    pass


class ZeroConstantTerm(PreconditionError):
    pass


class EmptyBasis(PreconditionError):
    pass


# -- size caps (exit 4) --

class SizeLimit(LimitError):
    pass


class TooLarge(LimitError):
    pass


class QTooLarge(LimitError):
    pass


# -- internal sentinels: these indicate a bug, not bad input --

class NonIntegralSolution(InternalCheckError):
    pass


class NonIntegralCoefficient(InternalCheckError):
    pass


class CoefficientOutsidePrimeField(InternalCheckError):
    pass


class StabilityViolation(InternalCheckError):
    pass


class InvariantViolation(InternalCheckError):
    """A computed value broke an identity that holds for every input."""
