"""Every public entry rejects an off-curve point with its own error type and
message, although the layers below it take a checked point as checked; and
what each membership test does with a coordinate from another field."""

import json

import pytest

from dualpair import (
    INFINITY,
    Curve,
    DlpInstance,
    DualCurve,
    DualPoint,
    Point,
    identity_isogeny,
    miller_eval,
    pairing_direct,
    pairing_rueck,
    pairing_semaev,
    weil_pairing,
)
from dualpair.cli import USAGE_EXIT, main
from dualpair.errors import BadInputError, InvalidPointError, PointNotOnCurveError
from dualpair.fields import Fp

#: the README's desk curve and its G
DESK = Curve(Fp(1511), 1301, 497)
G = DESK.point(129, 526)
R = DESK.mul(2, G)
BAD = Point(DESK.field(129), DESK.field(527))  # G's x, and a y that is on no point of the curve
OTHER = Fp(1523)

CANONICAL = DualCurve.canonical(DESK)
LIFT = DualCurve(DESK, 1, 0)
#: over a base point: G's point of each lift with one eps part moved, so only the eps equation fails
BAD_ON = {dc: DualPoint.affine(dc.lift(G).x, dc.lift(G).y + DESK.field.dual(0, 1)) for dc in (CANONICAL, LIFT)}
#: over no base point: the reduction fails E's equation
BAD_OFF = DualPoint.affine(DESK.field.dual(129), DESK.field.dual(527))

NOT_ON = PointNotOnCurveError, f"{BAD} not on {DESK!r}"


def _not_on_lift(pt):
    return InvalidPointError, f"{pt} not on lift of {DESK!r}"


def _bad_input(role):
    return BadInputError, f"{role} {BAD} is not on {DESK!r}"


_ENTRIES = [
    pytest.param(lambda: DESK.point(129, 527), NOT_ON, id="Curve.point"),
    pytest.param(lambda: DESK.add(G, BAD), NOT_ON, id="Curve.add-second"),
    pytest.param(lambda: DESK.add(BAD, G), NOT_ON, id="Curve.add-first"),
    pytest.param(lambda: DESK.mul(5, BAD), NOT_ON, id="Curve.mul"),
    pytest.param(lambda: LIFT.add(LIFT.lift(G), BAD_ON[LIFT]), _not_on_lift(BAD_ON[LIFT]), id="DualCurve.add-eps"),
    pytest.param(lambda: LIFT.add(BAD_OFF, LIFT.lift(G)), _not_on_lift(BAD_OFF), id="DualCurve.add-reduction"),
    pytest.param(lambda: LIFT.mul(DESK.p, BAD_ON[LIFT]), _not_on_lift(BAD_ON[LIFT]), id="DualCurve.mul-eps"),
    pytest.param(lambda: LIFT.mul(DESK.p, BAD_OFF), _not_on_lift(BAD_OFF), id="DualCurve.mul-reduction"),
    pytest.param(lambda: LIFT.lift(BAD), NOT_ON, id="DualCurve.lift"),
    pytest.param(lambda: CANONICAL.decompose(BAD_ON[CANONICAL]), _not_on_lift(BAD_ON[CANONICAL]), id="DualCurve.decompose-eps"),
    pytest.param(lambda: CANONICAL.decompose(BAD_OFF), _not_on_lift(BAD_OFF), id="DualCurve.decompose-reduction"),
    pytest.param(lambda: DlpInstance(DESK, BAD, G), NOT_ON, id="DlpInstance-P"),
    pytest.param(lambda: DlpInstance(DESK, G, BAD), NOT_ON, id="DlpInstance-Q"),
    pytest.param(lambda: pairing_direct(CANONICAL, BAD, 3), NOT_ON, id="pairing_direct-P"),
    pytest.param(lambda: pairing_direct(CANONICAL, G, 3, R=BAD), NOT_ON, id="pairing_direct-R"),
    pytest.param(lambda: pairing_direct(CANONICAL, G, 3, T=BAD), _bad_input("translation point T"), id="pairing_direct-T"),
    pytest.param(lambda: pairing_semaev(CANONICAL, BAD, 3), NOT_ON, id="pairing_semaev-P"),
    pytest.param(lambda: pairing_semaev(CANONICAL, G, 3, R=BAD), NOT_ON, id="pairing_semaev-R"),
    pytest.param(lambda: pairing_semaev(CANONICAL, G, 3, T=BAD), _bad_input("translation point T"), id="pairing_semaev-T"),
    pytest.param(lambda: pairing_rueck(CANONICAL, BAD, 3), NOT_ON, id="pairing_rueck-P"),
    pytest.param(lambda: miller_eval(DESK, BAD, DESK.p, G, R), NOT_ON, id="miller_eval-P"),
    pytest.param(lambda: miller_eval(DESK, G, DESK.p, BAD, R), _bad_input("translation point T"), id="miller_eval-T"),
    pytest.param(lambda: miller_eval(DESK, G, DESK.p, R, BAD), _bad_input("evaluation point"), id="miller_eval-at"),
    pytest.param(lambda: weil_pairing(DESK, 2, BAD, INFINITY), NOT_ON, id="weil_pairing-P"),
    pytest.param(lambda: weil_pairing(DESK, 2, INFINITY, BAD), NOT_ON, id="weil_pairing-Q"),
    pytest.param(lambda: identity_isogeny(DESK)(BAD), NOT_ON, id="Isogeny.__call__"),
]


@pytest.mark.parametrize("call, error", _ENTRIES)
def test_public_entry_rejects_an_off_curve_point(call, error):
    kind, message = error
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == message


_CURVE = json.dumps(DESK.to_json())
_CLI = [
    pytest.param(["pair", "--curve", _CURVE, "--point", "129,527", "--k", "3"], "129,527", id="pair--point"),
    pytest.param(["dlp", "--curve", _CURVE, "--p-point", "129,527", "--q-point", "129,526"], "129,527", id="dlp--p-point"),
    pytest.param(["dlp", "--curve", _CURVE, "--p-point", "129,526", "--q-point", '{"x": "129", "y": "527"}'],
                 '{"x": "129", "y": "527"}', id="dlp--q-point"),
]


@pytest.mark.parametrize("argv, raw", _CLI)
def test_cli_rejects_an_off_curve_point(argv, raw, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == USAGE_EXIT and captured.out == ""
    assert json.loads(captured.err) == {"error": "Usage", "message": f"point {raw!r} is not on the curve"}


def test_membership_of_a_coordinate_from_another_field():
    f = DESK.field
    with pytest.raises(BadInputError, match="^mixed field contexts$"):
        DESK.contains(Point(OTHER(129), f(526)))
    assert DESK.contains(Point(f(129), OTHER(526))) is False
    with pytest.raises(PointNotOnCurveError):
        DESK.mul(2, Point(f(129), OTHER(526)))
    for x, y in ((OTHER.dual(129), f.dual(526)), (f.dual(129), OTHER.dual(526))):
        with pytest.raises(BadInputError, match="^mixed field contexts$"):
            LIFT.is_valid(DualPoint.affine(x, y))
