"""An error's code is its class name without "Error", and the CLI writes every
DualPairError, a usage error included, as {"error": code, "message": ...}
with the error's exit status."""

import inspect
import json

from dualpair import errors
from dualpair.cli import USAGE_EXIT, UsageError, main

#: the code and exit status of each error, as the CLI's JSON error objects carry them
CODES = {
    "DivisionByZeroError": ("DivisionByZero", 1),
    "NonUnitError": ("NonUnit", 1),
    "PointNotOnCurveError": ("PointNotOnCurve", 1),
    "SearchExhaustedError": ("SearchExhausted", 2),
    "NotRationalError": ("NotRational", 1),
    "InvalidPointError": ("InvalidPoint", 1),
    "NotCanonicalError": ("NotCanonical", 1),
    "DegenerateEvaluationError": ("DegenerateEvaluation", 3),
    "BadTorsionError": ("BadTorsion", 3),
    "BadInputError": ("BadInput", 3),
    "NotASubgroupError": ("NotASubgroup", 1),
    "NotPTorsionError": ("NotPTorsion", 1),
    "WitnessInconsistentError": ("WitnessInconsistent", 1),
    "UsageError": ("Usage", 64),
}


def test_every_error_code_and_exit_status_is_pinned():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass) if issubclass(c, errors.DualPairError)]
    classes = [c for c in classes if c is not errors.DualPairError] + [UsageError]
    assert {c.__name__: (c.code, c.exit_code) for c in classes} == CODES
    assert (errors.DualPairError.code, errors.DualPairError.exit_code) == ("Error", 1)
    assert issubclass(UsageError, errors.DualPairError) and USAGE_EXIT == 64


def test_main_writes_a_usage_error_as_every_other_error(capsys):
    assert main(["find-anomalous", "--min", "3", "--max", "100"]) == USAGE_EXIT
    assert json.loads(capsys.readouterr().err) == {"error": "Usage", "message": "--min must exceed 3"}
