"""Exception types shared across the package, and ``charge``, the one
check every exhaustive sweep makes against its size bound."""


class NearVecError(ValueError):
    """Base class for all errors raised by this package."""


class BaseMismatchError(NearVecError):
    """A scalar or automorphism does not belong to the expected base."""


class BoundExceededError(NearVecError):
    """An exhaustive sweep would exceed its configured size bound."""


class UnsupportedBaseError(NearVecError):
    """The operation needs an enumerable base and got an infinite one."""


class InvalidAnchorError(NearVecError):
    """The anchor vector is zero or lies outside the quasi-kernel."""


def charge(needed, bound, what):
    """Refuse work of size ``needed`` beyond ``bound``; ``what`` names the
    work and its size, as in "81 candidates"."""
    if needed > bound:
        raise BoundExceededError(f"{what} exceed the bound {bound}")
