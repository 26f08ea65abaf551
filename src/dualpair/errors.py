"""Exception types shared across the package.

Each error carries a short machine-readable ``code``, its class name
without "Error" (used by the CLI for JSON error objects), and the process
exit status the CLI maps it to.
"""


class DualPairError(Exception):
    """Base class for all package errors."""

    code = "Error"
    exit_code = 1

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__.removesuffix("Error")


class DivisionByZeroError(DualPairError, ZeroDivisionError):
    """Division by zero in F_p."""


class NonUnitError(DualPairError, ZeroDivisionError):
    """Inversion of a dual number whose field part is zero."""


class PointNotOnCurveError(DualPairError):
    """A point handed to the group law does not satisfy the curve equation."""


class SearchExhaustedError(DualPairError):
    """A randomized search ran out of its trial budget."""

    exit_code = 2


class NotRationalError(DualPairError):
    """A construction needs a point or subgroup that does not exist over F_p."""


class InvalidPointError(DualPairError):
    """A dual point fails validation on its lifted curve."""


class NotCanonicalError(DualPairError):
    """Operation requires the canonical lift (unchanged coefficients)."""


class DegenerateEvaluationError(DualPairError):
    """A line function vanished (or lost invertibility) at an evaluation point."""

    exit_code = 3


class BadTorsionError(DualPairError):
    """A point does not have the torsion order an operation requires."""

    exit_code = 3


class BadInputError(DualPairError):
    """An auxiliary point violates a precondition (e.g. lies in the 2-torsion)."""

    exit_code = 3


class NotASubgroupError(DualPairError):
    """A claimed kernel is not closed under the group law."""


class NotPTorsionError(DualPairError):
    """A lifted point is not p-torsion, so the p-pairing is undefined on it."""


class WitnessInconsistentError(DualPairError):
    """The scaling-witness equations disagree although the j-value lies in F_p."""
