"""Exception taxonomy shared across the workbench."""


class CellintError(Exception):
    """Base class for all workbench errors."""


class NotPIntegralError(CellintError):
    """Residue extraction asked for an element with negative valuation."""


class ZeroInputError(CellintError):
    """Operation undefined at zero (e.g. n-th power membership of 0)."""


class ZeroCosetError(CellintError):
    """A nonzero coset scalar was required but lambda = 0 was supplied."""


class ExprSyntaxError(CellintError):
    """DSL parse failure, carrying the byte offset of the first bad token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownVariableError(ExprSyntaxError):
    """Identifier in a polynomial is not one of x1, x2, ..."""


class ZeroDenominatorError(ExprSyntaxError):
    """Rational literal with denominator zero."""


class ValOfZeroError(CellintError):
    """A val(...) carrier (or negative norm power) vanished at the point."""


class BoundVanishedError(CellintError):
    """A cell bound alpha/beta evaluated to 0; the certificate is malformed."""


class DivergentError(CellintError):
    """An unbounded sum with |ratio| >= 1, or an infinite-measure fiber."""


class ExponentTooLargeError(CellintError):
    """Valuation exponent l beyond the supported closed-form table."""


class CertificateMismatchError(CellintError):
    """Integrand terms refer to cells absent from (or unfit for) the certificate."""


class InvalidArgumentError(CellintError, ValueError):
    """An arity or level argument does not fit the request (e.g. too few variables)."""


class FloatOverflowError(CellintError, OverflowError):
    """An exact value is too large for its float view."""

    def __init__(self, message: str = "value is too large for a float"):
        super().__init__(message)


class BudgetExceededError(CellintError):
    """Residue enumeration would exceed the configured evaluation budget."""


class NonIntegralCoefficientsError(CellintError):
    """A polynomial required p-integral coefficients but has p in a denominator."""


class AllVanishedError(CellintError):
    """Every exponential-sum sample vanished exactly; no decay fit possible."""
