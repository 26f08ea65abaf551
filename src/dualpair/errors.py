"""Exception types shared across the package.

Each error carries a short machine-readable ``code`` (used by the CLI for
JSON error objects) and the process exit status the CLI maps it to.
"""


class DualPairError(Exception):
    """Base class for all package errors."""

    code = "Error"
    exit_code = 1


class DivisionByZeroError(DualPairError, ZeroDivisionError):
    """Division by zero in F_p."""

    code = "DivisionByZero"


class NonUnitError(DualPairError, ZeroDivisionError):
    """Inversion of a dual number whose field part is zero."""

    code = "NonUnit"


class PointNotOnCurveError(DualPairError):
    """A point handed to the group law does not satisfy the curve equation."""

    code = "PointNotOnCurve"


class SearchExhaustedError(DualPairError):
    """A randomized search ran out of its trial budget."""

    code = "SearchExhausted"
    exit_code = 2


class NotRationalError(DualPairError):
    """A construction needs a point or subgroup that does not exist over F_p."""

    code = "NotRational"


class InvalidPointError(DualPairError):
    """A dual point fails validation on its lifted curve."""

    code = "InvalidPoint"


class NotCanonicalError(DualPairError):
    """Operation requires the canonical lift (unchanged coefficients)."""

    code = "NotCanonical"


class DegenerateEvaluationError(DualPairError):
    """A line function vanished (or lost invertibility) at an evaluation point."""

    code = "DegenerateEvaluation"
    exit_code = 3


class BadTorsionError(DualPairError):
    """A point does not have the torsion order an operation requires."""

    code = "BadTorsion"
    exit_code = 3


class BadInputError(DualPairError):
    """An auxiliary point violates a precondition (e.g. lies in the 2-torsion)."""

    code = "BadInput"
    exit_code = 3


class NotASubgroupError(DualPairError):
    """A claimed kernel is not closed under the group law."""

    code = "NotASubgroup"


class NotPTorsionError(DualPairError):
    """A lifted point is not p-torsion, so the p-pairing is undefined on it."""

    code = "NotPTorsion"


class WitnessInconsistentError(DualPairError):
    """The scaling-witness equations disagree although the j-value lies in F_p."""

    code = "WitnessInconsistent"
