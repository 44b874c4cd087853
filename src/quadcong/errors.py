"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class;
anything else is a plain ValueError/AssertionError and means a bug.
"""


class QuadCongError(Exception):
    pass


# -- modulus / field construction ------------------------------------------

class InvalidModulus(QuadCongError):
    pass


class NotOdd(InvalidModulus):
    pass


class NotSquareFree(InvalidModulus):
    pass


class TooSmall(InvalidModulus):
    pass


class BadFactorization(InvalidModulus):
    pass


class FactoringExhausted(InvalidModulus):
    pass


class NotPrime(QuadCongError):
    pass


class InvalidInput(QuadCongError):
    pass


# -- forms ------------------------------------------------------------------

class ArityError(QuadCongError):
    pass


class SingularForm(QuadCongError):
    pass


# -- lattices ----------------------------------------------------------------

class DegenerateBasis(QuadCongError):
    pass


class NotPrimitive(QuadCongError):
    pass


class ZeroClass(QuadCongError):
    pass


# -- search / solver ---------------------------------------------------------

class SearchExhausted(QuadCongError):
    pass


class TraceInvariantViolation(QuadCongError):
    pass


class CertificateMismatch(QuadCongError):
    pass


# -- character sums ------------------------------------------------------------

class NotInGoodSet(QuadCongError):
    pass


class SingularQTilde(QuadCongError):
    pass


class RegionTooLarge(QuadCongError):
    pass


# -- experiment fitting --------------------------------------------------------

class FitError(QuadCongError):
    pass
