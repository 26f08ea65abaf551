"""Isogenies between short-Weierstrass curves as rational maps.

A separable isogeny in short-Weierstrass coordinates can be written as
phi(x, y) = (r(x), y*s(x)) with r, s rational functions of x alone.  Its
pullback of the invariant differential dx/y is (r'/s) * dx/y, so the
scalar m with (pullback of t2) = m*t1 + O(t1^2) (t = -x/y the uniformizer
at infinity) is just r'/s, a constant on the curve: m = 1 for a
normalized Velu isogeny, m = n for multiplication by n, and m = 0 exactly
for inseparable maps such as Frobenius.  m is multiplicative under
composition.

Construction routes:

* `velu` and `velu_from_kernel_polynomial` - one construction, `_kohel`,
  in Kohel's form of Velu's formulas (Velu 1971; Kohel, thesis, 1996).
  Its input is D = prod (x - x(Q)) over the kernel's nonzero points Q: a
  pair +-Q gives a squared factor and a point of order 2 a simple one.
  With n = deg D + 1, s_1, s_2, s_3 the power sums of D's roots and
  f = x^3 + Ax + B,
      r = n*x - s_1 - f'*D'/D - 2*f*(D'/D)',  s = r',
      A_2 = A - 5*(3*s_2 + A*deg D),  B_2 = B - 7*(5*s_3 + 3*A*s_1 + 2*B*deg D).
  `velu` takes a rational kernel subgroup as a point list.
  `velu_from_kernel_polynomial` takes the monic kernel polynomial h of an
  odd kernel and passes D = h^2: anomalous curves have a rational point
  group of odd prime order p, so the kernel of a rational ell-isogeny
  (ell != p) never consists of rational points; it is only Galois-stable,
  and h (degree (ell-1)/2) is what exists over F_p.
* `multiplication_isogeny` - multiplication by n through division
  polynomials: r_n = x - psi_{n-1}psi_{n+1}/psi_n^2 and s_n = r_n'/n.
  Each psi_n is kept by its pure-x part (psi_n for odd n, psi_n/y for
  even n), so every product of two of them is y-free after y^2 = f.
* `frobenius_isogeny` - (x, y) -> (x^p, y^p), the inseparable test map.
* `find_cyclic_isogeny` - the Frobenius-eigenvalue search on anomalous
  curves: a rational ell-isogeny exists iff x^2 - x + p has a root lam mod
  ell, and its kernel polynomial is gcd(psi_ell, x^p - x([lam])) from one
  x^p mod psi_ell; when Frobenius is a scalar on E[ell], every line is
  rational and each comes from closing a root of one irreducible factor
  of psi_ell.  The rational kernel with the smallest kernel-polynomial
  `coeffs` tuple is returned.

Every constructor checks the curve identity (x^3 + A1*x + B1) * s^2 =
r^3 + A2*r + B2 as one polynomial identity with the denominators cleared,
f * s_num^2 * r_den^3 = (r_num^3 + A2*r_num*r_den^2 + B2*r_den^3) * s_den^2.

`Isogeny.eval_lifted` is phi base-changed to F_p[eps] on the canonical
lifts, whose points split as embed(P) + O_k.  It sends embed(P) to
embed(phi(P)) and O_k to O_{m*k}, since the formal-group map of phi has
linear term m (Silverman, AEC, ch. IV).  So a point over the kernel maps
to O_{m*k} in closed form; elsewhere the rational maps are evaluated with
dual arithmetic.
"""

from __future__ import annotations

from .curve import INFINITY, Curve, Point, is_anomalous
from .dual_curve import DualCurve, DualPoint
from .errors import BadInputError, DualPairError, NotASubgroupError, NotRationalError
from .fields import Fp, FpElement
from .numbertheory import is_prime
from .pairing import lifted_pairing
from .poly import Polynomial, _split_equal_degree


class RationalFunction:
    """A reduced fraction of polynomials with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = num.gcd(den)
        if g.degree > 0:
            num, den = num.exact_div(g), den.exact_div(g)
        lead_inv = pow(den.lead(), -1, den.field.p)
        self.num = num * lead_inv
        self.den = den * lead_inv

    @staticmethod
    def from_poly(poly: Polynomial) -> "RationalFunction":
        return RationalFunction(poly, Polynomial.constant(poly.field, 1))

    @property
    def field(self) -> Fp:
        return self.num.field

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den, self.den * other.num)

    def scale(self, c) -> "RationalFunction":
        return RationalFunction(self.num * int(self.field(c)), self.den)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def defined_at(self, x: FpElement) -> bool:
        return not self.den(x).is_zero()

    def __call__(self, x):
        """Evaluate at FpElement (den must be nonzero) or DualNumber (den a unit)."""
        return self.num(x) / self.den(x)

    def compose_poly(self, poly: Polynomial) -> "RationalFunction":
        """poly(self): substitute this fraction into a polynomial."""
        f = self.field
        num_acc = Polynomial.zero(f)
        d = len(poly.coeffs) - 1
        powers = [Polynomial.constant(f, 1)]
        for _ in range(d):
            powers.append(powers[-1] * self.num)
        den_powers = [Polynomial.constant(f, 1)]
        for _ in range(d):
            den_powers.append(den_powers[-1] * self.den)
        for i, c in enumerate(poly.coeffs):
            if c:
                num_acc = num_acc + powers[i] * den_powers[d - i] * c
        return RationalFunction(num_acc, den_powers[d])

    def compose(self, inner: "RationalFunction") -> "RationalFunction":
        """self(inner(x))."""
        return inner.compose_poly(self.num) / inner.compose_poly(self.den)

    def is_constant(self) -> bool:
        return self.den.degree == 0 and self.num.degree <= 0

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"


class Isogeny:
    """phi(x, y) = (r(x), y*s(x)) between two short-Weierstrass curves."""

    __slots__ = ("source", "target", "r", "s", "degree", "m")

    def __init__(self, source: Curve, target: Curve, r: RationalFunction, s: RationalFunction,
                 degree: int, m: FpElement):
        self.source = source
        self.target = target
        self.r = r
        self.s = s
        self.degree = degree
        self.m = m

    # -- structure ------------------------------------------------------

    def kernel_polynomial(self) -> Polynomial:
        """Monic polynomial whose roots are the affine kernel x-coordinates."""
        den = self.r.den
        if den.degree <= 0:
            return Polynomial.constant(self.source.field, 1)
        rad = den.exact_div(den.gcd(den.derivative()))
        return rad.monic()

    def in_kernel(self, P: Point) -> bool:
        if P.is_infinity:
            return True
        return self.r.den(P.x).is_zero()

    def curve_identity_holds(self) -> bool:
        """(x^3 + A1 x + B1) * s^2 == r^3 + A2 r + B2, with the denominators cleared."""
        fx = Polynomial(self.source.field, (int(self.source.B), int(self.source.A), 0, 1))
        (rn, rd), (sn, sd) = (self.r.num, self.r.den), (self.s.num, self.s.den)
        rd2 = rd * rd
        lhs = fx * sn * sn * rd2 * rd
        rhs = ((rn * rn + rd2 * int(self.target.A)) * rn + rd2 * rd * int(self.target.B)) * sd * sd
        return lhs == rhs

    # -- evaluation -------------------------------------------------------

    def __call__(self, P: Point) -> Point:
        self.source._require_on_curve(P)
        if self.in_kernel(P):
            return INFINITY
        x = self.r(P.x)
        y = P.y * self.s(P.x)
        out = Point(x, y)
        self.target._require_on_curve(out)
        return out

    def eval_lifted(self, Pt: DualPoint) -> DualPoint:
        """phi base-changed to the canonical lifts, at Pt = embed(P) + O_k.

        `decompose` validates Pt and gives (P, k).  A P in the kernel, infinity
        included, maps to O_{m*k}; elsewhere the rational maps are evaluated
        with dual arithmetic and the image is checked on the target's lift.
        """
        P0, k = DualCurve.canonical(self.source).decompose(Pt)
        if self.in_kernel(P0):
            return DualPoint.infinity(self.m * k)
        out = DualPoint.affine(self.r(Pt.x), Pt.y * self.s(Pt.x))
        DualCurve.canonical(self.target)._require_valid(out)
        return out

    # -- composition --------------------------------------------------------

    def compose(self, inner: "Isogeny") -> "Isogeny":
        """self o inner (apply inner first)."""
        if inner.target != self.source:
            raise BadInputError("isogenies do not chain: inner target differs from outer source")
        r = self.r.compose(inner.r)
        s = self.s.compose(inner.r) * inner.s
        return Isogeny(inner.source, self.target, r, s,
                       self.degree * inner.degree, self.m * inner.m)

    def __repr__(self):
        return f"Isogeny(deg={self.degree}, m={self.m}, {self.source!r} -> {self.target!r})"

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "r_num": [str(c) for c in self.r.num.coeffs],
            "r_den": [str(c) for c in self.r.den.coeffs],
            "s_num": [str(c) for c in self.s.num.coeffs],
            "s_den": [str(c) for c in self.s.den.coeffs],
            "degree": str(self.degree),
            "m": str(self.m.value),
        }


def compute_m(phi: Isogeny) -> FpElement:
    """The differential coefficient r'/s, recomputed from the rational maps.

    r'/s is a constant function for any isogeny written as (r, y*s), so the
    reduced quotient must be a constant rational function; its value is m
    (0 for inseparable maps, where r' vanishes identically).
    """
    f = phi.source.field
    rp = phi.r.derivative()
    if rp.num.is_zero():
        return f.zero()
    quotient = rp / phi.s
    if not quotient.is_constant():
        raise DualPairError("r'/s is not constant: not an isogeny")
    return f(quotient.num[0]) / f(quotient.den[0])


# -- construction: Velu from rational kernel points -------------------------------


def _check_subgroup(curve: Curve, pts: list[Point]):
    ps = set(pts)
    if INFINITY not in ps:
        raise NotASubgroupError("kernel must contain the identity")
    for P in ps:
        if not curve.contains(P):
            raise NotASubgroupError(f"{P} is not on the curve")
        if curve.neg(P) not in ps:
            raise NotASubgroupError("kernel is not closed under negation")
    for P in ps:
        for Q in ps:
            if curve._add_raw(P, Q) not in ps:
                raise NotASubgroupError("kernel is not closed under addition")


def _kohel(curve: Curve, D: Polynomial) -> Isogeny:
    """The normalized isogeny whose kernel's nonzero points Q have prod (x - x(Q)) = D, monic.

    Kohel's form of Velu's formulas (see the module docstring); the callers
    check the curve identity.  The power sums s_1, s_2, s_3 of D's roots come from its top
    coefficients by Newton's identities.  r has denominator D, since
    f*D'^2 is a multiple of D: a squared factor divides D'^2, and a simple
    one is a root of f.
    """
    f = curve.field
    A, B, d = int(curve.A), int(curve.B), D.degree
    e1, e2, e3 = -D[d - 1], D[d - 2], -D[d - 3]
    s1 = e1
    s2 = e1 * s1 - 2 * e2
    s3 = e1 * s2 - e2 * s1 + 3 * e3
    fx = Polynomial(f, (B, A, 0, 1))
    Dp = D.derivative()
    num = (Polynomial(f, (-s1, d + 1)) * D - fx.derivative() * Dp - 2 * (fx * Dp.derivative())
           + (2 * (fx * Dp * Dp)).exact_div(D))
    r = RationalFunction(num, D)
    target = Curve(f, A - 5 * (3 * s2 + A * d), B - 7 * (5 * s3 + 3 * A * s1 + 2 * B * d))
    return Isogeny(curve, target, r, r.derivative(), d + 1, f.one())


def velu(curve: Curve, kernel: list[Point]) -> Isogeny:
    """The normalized (m = 1) separable isogeny with the given rational kernel; its degree counts distinct points."""
    _check_subgroup(curve, kernel)
    phi = _kohel(curve, Polynomial.from_roots(curve.field, [P.x for P in set(kernel) if not P.is_infinity]))
    if not phi.curve_identity_holds():
        raise DualPairError("Velu construction left the target curve")
    return phi


def identity_isogeny(curve: Curve) -> Isogeny:
    return _kohel(curve, Polynomial.constant(curve.field, 1))


def velu_from_kernel_polynomial(curve: Curve, h: Polynomial) -> Isogeny:
    """The normalized isogeny with odd kernel of kernel polynomial h, through D = h^2.

    h has degree d = (ell-1)/2 and roots the x-coordinates of the kernel's
    point pairs; it need not split over F_p, only have coefficients there.
    Raises BadInputError when h is zero or not actually a kernel polynomial
    (the curve identity fails).
    """
    if h.is_zero():
        raise BadInputError("the zero polynomial is not a kernel polynomial")
    h = h.monic()
    try:
        phi = _kohel(curve, h * h)
    except ValueError:  # a singular target curve, which no kernel polynomial gives
        phi = None
    if phi is None or not phi.curve_identity_holds():
        raise BadInputError("not a kernel polynomial for this curve")
    return phi


# -- construction: division polynomials and multiplication by n --------------------


def _division_polynomials(curve: Curve, top: int) -> list[Polynomial]:
    """The pure-x parts of psi_0..psi_top (psi_n for odd n, psi_n/y for even n) by
    the standard recurrences (Washington, section 3.2) with y^2 = f: for n = 2m + 1
    the even-index product carries y^4 = f^2, and for n = 2m the factor 2y cancels."""
    f = curve.field
    A, B = int(curve.A), int(curve.B)
    fx = Polynomial(f, (B, A, 0, 1))
    f2 = fx * fx
    half = pow(2, -1, f.p)
    psi = [
        Polynomial.zero(f),  # psi_0 = 0
        Polynomial.constant(f, 1),  # psi_1 = 1
        Polynomial.constant(f, 2),  # psi_2 = 2y
        Polynomial(f, (-A * A, 12 * B, 6 * A, 0, 3)),
        Polynomial(f, (-A**3 - 8 * B * B, -4 * A * B, -5 * A * A, 20 * B, 5 * A, 0, 1)) * 4,  # psi_4 / y
    ]
    for n in range(len(psi), top + 1):
        m = n // 2
        if n % 2:
            a = psi[m + 2] * psi[m] * psi[m] * psi[m]
            b = psi[m - 1] * psi[m + 1] * psi[m + 1] * psi[m + 1]
            psi.append(a * f2 - b if m % 2 == 0 else a - b * f2)
        else:
            diff = psi[m + 2] * psi[m - 1] * psi[m - 1] - psi[m - 2] * psi[m + 1] * psi[m + 1]
            psi.append(psi[m] * diff * half)
    return psi


def division_polynomial(curve: Curve, n: int) -> Polynomial:
    """The pure-x content of psi_n: psi_n itself for odd n, psi_n/y for even."""
    return _division_polynomials(curve, n)[n]


def _x_of_multiple(psi: list[Polynomial], fx: Polynomial, n: int) -> tuple[Polynomial, Polynomial]:
    """(num, den) with x([n]P) = num/den, as pure-x polynomials:
    num = x*psi_n^2 - psi_(n-1)*psi_(n+1) and den = psi_n^2, where y^2 = f
    enters at psi_n for even n and at its two neighbours for odd n."""
    den, prod = psi[n] * psi[n], psi[n - 1] * psi[n + 1]
    den, prod = (den, fx * prod) if n % 2 else (fx * den, prod)
    return Polynomial.x(fx.field) * den - prod, den


def multiplication_isogeny(curve: Curve, n: int) -> Isogeny:
    """Multiplication by n as a rational map: degree n^2, m = n, for 1 <= n <= 7."""
    if not 1 <= n <= 7:
        raise BadInputError("multiplication maps are built for 1 <= n <= 7")
    if n % curve.p == 0:
        raise BadInputError("multiplication by a multiple of p is inseparable; use frobenius_isogeny")
    if n == 1:
        return identity_isogeny(curve)
    f = curve.field
    fx = Polynomial(f, (int(curve.B), int(curve.A), 0, 1))
    r = RationalFunction(*_x_of_multiple(_division_polynomials(curve, n + 1), fx, n))
    s = r.derivative().scale(pow(n, -1, f.p))
    phi = Isogeny(curve, curve, r, s, n * n, f(n))
    if not phi.curve_identity_holds():
        raise DualPairError("division-polynomial maps left the curve")
    return phi


def frobenius_isogeny(curve: Curve) -> Isogeny:
    """(x, y) -> (x^p, y^p): inseparable, degree p, m = 0 (tiny p only)."""
    f = curve.field
    p = f.p
    r = RationalFunction.from_poly(Polynomial(f, [0] * p + [1]))
    fx = Polynomial(f, (int(curve.B), int(curve.A), 0, 1))
    s_poly = Polynomial.constant(f, 1)
    for _ in range((p - 1) // 2):
        s_poly = s_poly * fx
    phi = Isogeny(curve, curve, r, RationalFunction.from_poly(s_poly), p, f.zero())
    if not phi.curve_identity_holds():
        raise DualPairError("Frobenius maps left the curve")
    return phi


# -- search for rational cyclic isogenies ------------------------------------------


def find_cyclic_isogeny(curve: Curve, ell: int) -> Isogeny:
    """A rational ell-isogeny from `curve`, for ell = 2 or an odd prime ell != p.

    For ell = 2 a rational 2-torsion point is required.  For odd ell the
    curve must be anomalous, and the search follows the Frobenius
    eigenvalues (Elkies; Schoof's eigenvalue search).  Frobenius has trace
    1, so it satisfies x^2 - x + p on E[ell], and a rational ell-isogeny
    exists iff that polynomial has a root lam mod ell; NotRationalError is
    raised at once when it has none.  The kernel points Q of the
    lam-eigenline satisfy x(Q)^p = x([lam]Q) = x([mu]Q), mu = min(lam,
    ell - lam), and -lam is never the other eigenvalue, so one
    X_p = x^p mod psi_ell and one gcd give the kernel polynomial

        h_lam = gcd(psi_ell, X_p * psi_mu^2 - (x * psi_mu^2 - psi_(mu-1) * psi_(mu+1))).

    When h_lam is all of psi_ell, Frobenius is the scalar lam on E[ell],
    every line of E[ell] is rational, and each is found by closing a root
    of one irreducible factor of psi_ell (see `_scalar_kernels`).

    Every candidate is validated by `velu_from_kernel_polynomial`'s curve
    identity.  Of the rational kernels, the one whose monic kernel
    polynomial has the smallest `coeffs` tuple (compared from the constant
    term up) is returned, so the choice does not depend on the search.
    """
    if ell == 2:
        pts = curve.two_torsion()
        if not pts:
            raise NotRationalError("no rational 2-torsion point")
        return velu(curve, [INFINITY, pts[0]])
    if ell < 3 or ell == curve.p or not is_prime(ell):
        raise BadInputError("ell must be 2 or an odd prime different from p")
    if not is_anomalous(curve):
        raise BadInputError("the eigenvalue search needs an anomalous curve (trace 1)")
    p = curve.p
    eigenvalues = [lam for lam in range(1, ell) if (lam * lam - lam + p) % ell == 0]
    if not eigenvalues:
        raise NotRationalError(f"no rational {ell}-isogeny: x^2 - x + {p} has no root mod {ell}")
    f = curve.field
    fx = Polynomial(f, (int(curve.B), int(curve.A), 0, 1))
    psi = _division_polynomials(curve, ell)
    psi_ell = psi[ell].monic()
    xp = Polynomial.x(f).pow_mod(p, psi_ell)
    d = (ell - 1) // 2
    candidates: set[Polynomial] = set()
    for lam in eigenvalues:
        num, den = _x_of_multiple(psi, fx, min(lam, ell - lam))
        h = psi_ell.gcd(xp * den - num)
        if h.degree == d:
            candidates.add(h)
        elif h == psi_ell:
            candidates.update(_scalar_kernels(psi, fx, h, lam, d))
    for h in sorted(candidates, key=lambda g: g.coeffs):
        try:
            return velu_from_kernel_polynomial(curve, h)
        except BadInputError:
            continue
    raise DualPairError(f"x^2 - x + {p} has a root mod {ell}, but no {ell}-kernel validated")


def _scalar_kernels(psi: list[Polynomial], fx: Polynomial, psi_ell: Polynomial, lam: int, d: int) -> list[Polynomial]:
    """Every kernel polynomial of degree d when Frobenius is the scalar lam on E[ell].

    The orbit of x(Q) under Frobenius is x([lam^k]Q), k >= 0, of size e =
    the order of lam in (Z/ell)^*/{+-1}, so psi_ell splits into
    irreducibles of degree e.  A root X of one factor g, in the field
    F_p[x]/g, is closed to prod_(i <= d) (T - x([i]Q)); its coefficients
    are Frobenius-fixed, hence constants.  Every line is reached, once per
    factor of its kernel polynomial.
    """
    f = fx.field
    ell = 2 * d + 1
    e = next(k for k in range(1, ell) if pow(lam, k, ell) in (1, ell - 1))
    multiples = [_x_of_multiple(psi, fx, i) for i in range(1, d + 1)]
    zero = Polynomial.zero(f)
    kernels: list[Polynomial] = []
    for g in _split_equal_degree(psi_ell, e):
        closure = [Polynomial.constant(f, 1)]  # T-coefficients, lowest first, mod g
        for num, den in multiples:
            xi = num * den.pow_mod(f.p**e - 2, g) % g  # the inverse in the field of p^e elements
            closure = [(lo - xi * hi) % g for lo, hi in zip([zero] + closure, closure + [zero])]
        kernels.append(Polynomial(f, [c[0] for c in closure]))
    return kernels


# -- pairing functoriality -----------------------------------------------------------


def check_functoriality(phi: Isogeny, Pt: DualPoint, Qt: DualPoint, method: str = "rueck", rng=None) -> bool:
    """Whether e_p(phi~(Pt), phi~(Qt)) = e_p(Pt, Qt)^(deg phi) holds exactly."""
    src = DualCurve.canonical(phi.source)
    tgt = DualCurve.canonical(phi.target)
    before = lifted_pairing(src, Pt, Qt, method=method, rng=rng)
    after = lifted_pairing(tgt, phi.eval_lifted(Pt), phi.eval_lifted(Qt), method=method, rng=rng)
    return after == before ** phi.degree
