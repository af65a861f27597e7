"""Exception types shared across the package."""


class SWCalcError(Exception):
    """Base class for every error raised by swcalc."""


class PreconditionError(SWCalcError, ValueError):
    """A library call got an argument outside its documented domain."""


class DimensionMismatch(SWCalcError):
    """A coordinate vector does not match the lattice rank."""


class ParityError(SWCalcError):
    """chi + sigma is not divisible by 4."""


class OddExponent(SWCalcError):
    """w.w + k.w is odd for some class k, so a sign exponent is not an integer."""


class NonIntegralC(SWCalcError):
    """The characteristic number is not an integer where one is required."""


class ConjectureNotAssumed(SWCalcError):
    """A relation operation was invoked with the multiplicity-conjecture flag unset."""


class HypothesisViolation(SWCalcError):
    """A named hypothesis of a relation formula fails for the given query."""

    def __init__(self, precondition: str, detail: str = ""):
        self.precondition = precondition
        self.detail = detail
        msg = f"hypothesis violated: {precondition}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InadmissibleParity(SWCalcError):
    """An exponent that must be an integer is a half-integer for this query."""


class AbundanceUndetermined(SWCalcError):
    """No hyperbolic pair was found at the given radius and none was supplied."""


class AbundanceInconsistent(SWCalcError):
    """A class built on the hyperbolic pair fails an identity its verdict rests on."""


class NotCharacteristic(SWCalcError):
    """The supplied class is not an integral lift of w2."""


class ParseError(SWCalcError):
    """Malformed manifest text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(SWCalcError):
    """A manifest field violates a named invariant."""

    def __init__(self, invariant: str, message: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {message}")
