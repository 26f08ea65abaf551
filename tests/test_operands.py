"""Every binary dunder in src that answers NotImplemented to an operand of a foreign
type: a str, a float or a bare object, on either side, raises TypeError, or
compares unequal.  The dunders are found in the source, so a new one needs an
instance here."""

import ast
import operator
from pathlib import Path

import pytest

from dualpair import Curve, DualCurve, PairingValue, Point
from dualpair.dlp import AttackResult
from dualpair.fields import Fp
from dualpair.isogeny import RationalFunction
from dualpair.poly import Polynomial

SRC = Path(__file__).resolve().parent.parent / "src" / "dualpair"
#: the operator that calls each binary dunder, from the left for __op__ and from the right for __rop__
OPERATORS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "truediv": operator.truediv,
    "eq": operator.eq,
}
DESK = Curve(Fp(1511), 1301, 497)
G = DESK.point(129, 526)
#: an instance of each class with such a dunder
INSTANCES = {
    "FpElement": DESK.field(3),
    "DualNumber": DESK.field.dual(3, 2),
    "PairingValue": PairingValue(DESK.field(3)),
    "Point": G,
    "Curve": DESK,
    "DualPoint": DualCurve.canonical(DESK).lift(G),
    "DualCurve": DualCurve.canonical(DESK),
    "_Frozen": AttackResult(5, "rueck"),
    "RationalFunction": RationalFunction.from_poly(Polynomial.x(DESK.field)),
    "Polynomial": Polynomial.x(DESK.field),
}
FOREIGN = ["x", 1.5, object()]


def _declines(fn: ast.FunctionDef) -> bool:
    """Whether fn's body has a `return NotImplemented`."""
    return any(isinstance(n, ast.Return) and isinstance(n.value, ast.Name) and n.value.id == "NotImplemented" for n in ast.walk(fn))


def _declining_dunders() -> list:
    """(class name, operator name) for each binary dunder in src with a `return NotImplemented`."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            for fn in cls.body if isinstance(cls, ast.ClassDef) else ():
                op = fn.name.strip("_").removeprefix("r") if isinstance(fn, ast.FunctionDef) else None
                if op in OPERATORS and _declines(fn):
                    found.add((cls.name, op))
    return sorted(found)


DUNDERS = _declining_dunders()


def test_the_source_has_the_declining_dunders_of_each_class():
    assert {cls for cls, _ in DUNDERS} == set(INSTANCES)
    assert ("PairingValue", "mul") in DUNDERS and ("FpElement", "sub") in DUNDERS


@pytest.mark.parametrize("operand", FOREIGN, ids=["str", "float", "object"])
@pytest.mark.parametrize("cls,op", DUNDERS)
def test_a_foreign_operand_raises_type_error_or_compares_unequal(cls, op, operand):
    x, apply = INSTANCES[cls], OPERATORS[op]
    for left, right in ((x, operand), (operand, x)):
        if op == "eq":
            assert apply(left, right) is False and (left != right) is True
        else:
            with pytest.raises(TypeError):
                apply(left, right)


def test_a_pairing_value_declines_a_scalar():
    # a value of mu_p is multiplied and divided only by another, and raised to an int power
    v = INSTANCES["PairingValue"]
    for op in (lambda: v * 3, lambda: 3 * v, lambda: v / 3, lambda: v * DESK.field(3), lambda: DESK.field(3) / v):
        with pytest.raises(TypeError):
            op()
    assert v**3 == v * v * v
