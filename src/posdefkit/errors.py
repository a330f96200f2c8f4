"""Exception types shared across the package."""

import inspect


class PosdefkitError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PosdefkitError, ValueError):
    """A point falls outside the domain a function or check was declared on."""


class InvalidMeasure(PosdefkitError, ValueError):
    """A measure violates its construction contract (signs, grids, envelopes)."""


class DivergentIntegral(PosdefkitError, ArithmeticError):
    """An integral's tail bound cannot be brought below the requested tolerance."""


class NonFiniteEntry(PosdefkitError, ValueError):
    """A Gram matrix or sample vector contains NaN or infinity."""


class OrderTooHigh(PosdefkitError, ValueError):
    """A derivative or difference order exceeds what the data supports."""


class NotConvex(PosdefkitError, ValueError):
    """A function required to be convex (and nonnegative) fails the check."""


class NotIncreasing(PosdefkitError, ValueError):
    """A function required to be nondecreasing has a decreasing segment."""


class NotNegativeDefinite(PosdefkitError, ValueError):
    """Second-derivative data is incompatible with negative definiteness."""


class NotSymmetric(PosdefkitError, ValueError):
    """A function required to be even fails the symmetry check."""


class NotReflectionPositive(PosdefkitError, ValueError):
    """A quotient construction hit a negative direction; carries a witness."""

    def __init__(self, message, witness=None, extremal_eig=None):
        super().__init__(message)
        self.witness = witness
        self.extremal_eig = extremal_eig


class InvalidRep(PosdefkitError, ValueError):
    """A representation object violates its integrability preconditions."""


class UnknownName(PosdefkitError, KeyError):
    """A lookup used a name that is not registered, or a parameter that the
    named builder does not take."""

    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it

    @classmethod
    def check_params(cls, builder, what, params):
        """Raise one, naming ``what`` and the parameters ``builder`` accepts,
        unless ``builder(**params)`` binds to its signature."""
        sig = inspect.signature(builder)
        try:
            sig.bind(**params)
        except TypeError:
            accepts = ", ".join(sig.parameters) or "no parameters"
            extra = [key for key in params if key not in sig.parameters]
            raise cls(f"{what} accepts {accepts}, not {', '.join(extra)}") from None


class ConsistencyError(PosdefkitError, RuntimeError):
    """Two routes that must agree produced contradicting verdicts."""
