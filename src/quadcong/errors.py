"""Exception types shared across the package, and the one work bound.

Every failure mode that callers are expected to catch gets its own class;
anything else is a plain ValueError/AssertionError and means a bug.

POINT_BUDGET is bound here and nowhere else: the solver, the character-sum
kernels and the oracle scans all charge their points through
``_guard_points``, so patching ``errors.POINT_BUDGET`` moves every guard at
once.  This module imports nothing, so the solve path can charge its search
without loading the numpy kernels.
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


POINT_BUDGET = 10**8


def _guard_points(n: int, what):
    """The one work bound: raise RegionTooLarge when a kernel is about to
    touch more than POINT_BUDGET points.  Kernels call it before they
    allocate; what names the kernel and its modulus or size, or is a
    function of no arguments that returns that name, called only when the
    budget is exceeded (a kernel that charges many times keeps its name
    unbuilt)."""
    if n > POINT_BUDGET:
        raise RegionTooLarge(f"{what() if callable(what) else what}: {n} points exceeds budget {POINT_BUDGET}")


# -- experiment fitting --------------------------------------------------------

class FitError(QuadCongError):
    pass
