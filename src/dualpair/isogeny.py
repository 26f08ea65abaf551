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

* `velu`, `velu_from_kernel_polynomial`, `identity_isogeny` and
  `multiplication_isogeny` - one construction, `_kohel`, in Kohel's form of
  Velu's formulas (Velu 1971; Kohel, thesis, 1996, section 2.4).  Its input
  is D = prod (x - x(Q)) over the kernel's nonzero points Q, as D = g*h^2:
  g has a simple factor for each point of order 2, and h one for each +-Q.  With
  n = deg D + 1, s_1, s_2, s_3 the power sums of D's roots and
  f = x^3 + Ax + B,
      r = n*x - s_1 - f'*D'/D - 2*f*(D'/D)' = N/D,
      s = r' = (N'*g*h - N*(g'*h + 2*g*h'))/(g^2*h^3),
      A_2 = A - 5*(3*s_2 + A*deg D),  B_2 = B - 7*(5*s_3 + 3*A*s_1 + 2*B*deg D).
  Both fractions are reduced as built, with monic denominators, so no gcd
  normalizes them.  `velu` takes a rational kernel subgroup as a point
  list, and g is the product over its points with y = 0.
  `velu_from_kernel_polynomial` takes the monic kernel polynomial h of an
  odd kernel, with g = 1: anomalous curves have a rational point
  group of odd prime order p, so the kernel of a rational ell-isogeny
  (ell != p) never consists of rational points; it is only Galois-stable,
  and h (degree (ell-1)/2) is what exists over F_p.  `identity_isogeny`
  is g = h = 1.  `multiplication_isogeny` is the kernel E[n], D = psi_n^2/n^2:
  h is psi_n's pure-x part (psi_n/y for even n) made monic, and g = f for
  even n.  That map lands on (n^4*A, n^6*B), and (x, y) -> (x/n^2, y/n^3)
  brings it back, so [n] is (r/n^2, y*s/n^3), with m = n.
* `frobenius_isogeny` - (x, y) -> (x^p, y^p), the inseparable test map.
* `find_cyclic_isogeny` - the Frobenius-eigenvalue search on anomalous
  curves (Elkies 1998): a rational ell-isogeny exists iff x^2 - x + p has
  a root lam mod ell, and its kernel polynomial is gcd(psi_ell, x^p -
  x([lam])) from one x^p mod psi_ell, x([i]P) = x - psi_(i-1)psi_(i+1)/psi_i^2.
  It builds psi_ell and the psi_0..psi_(d+1), d = (ell-1)/2, that x([i]P)
  reads, and no other psi_n.  When Frobenius is a scalar on E[ell], every
  line is rational, and psi_ell is split by lines: sigma = x + x([2]x) +
  ... + x([d]x) takes one value in F_p on the roots of each line, so gcds
  with (sigma + c)^((p-1)/2) - 1 split psi_ell into whole lines.  The
  rational kernel with the smallest kernel-polynomial `coeffs` tuple is
  returned.

Every constructor checks the curve identity (x^3 + A1*x + B1) * s^2 =
r^3 + A2*r + B2 as one polynomial identity with the denominators cleared,
f * s_num^2 * r_den^3 = (r_num^3 + A2*r_num*r_den^2 + B2*r_den^3) * s_den^2.

`Isogeny.eval_lifted` is phi base-changed to F_p[eps] on the canonical
lifts, whose points split as embed(P) + O_k.  It sends embed(P) to
embed(phi(P)) and O_k to O_{m*k}, since the formal-group map of phi has
linear term m (Silverman, AEC, ch. IV), so it is the one closed form
embed(P) + O_k -> embed(phi(P)) + O_{m*k}, a point over the kernel
included, where phi(P) is infinity.
"""

from __future__ import annotations

from .curve import INFINITY, Curve, Point, is_anomalous
from .dual_curve import DualCurve, DualPoint
from .errors import BadInputError, DualPairError, NotASubgroupError, NotRationalError
from .fields import Fp, FpElement
from .numbertheory import is_prime
from .pairing import lifted_pairing
from .poly import Polynomial, _split_by_values


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
    def _reduced(num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den as given, for a caller that builds it reduced with a monic den."""
        out = object.__new__(RationalFunction)
        out.num, out.den = num, den
        return out

    @staticmethod
    def from_poly(poly: Polynomial) -> "RationalFunction":
        return RationalFunction(poly, Polynomial.constant(poly.field, 1))

    @property
    def field(self) -> Fp:
        return self.num.field

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.den, self.den * other.num)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, x):
        """Evaluate at an element of F_p where the denominator is nonzero."""
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
        fx = Polynomial(self.source.field, (self.source.B, self.source.A, 0, 1))
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
        """phi base-changed to the canonical lifts: embed(P) + O_k -> embed(phi(P)) + O_{m*k}.

        `decompose` validates Pt and gives (P, k); over the kernel phi(P) is
        infinity, so the image is O_{m*k}.
        """
        P0, k = DualCurve.canonical(self.source).decompose(Pt)
        return DualCurve.canonical(self.target).compose(self(P0), self.m * k)

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


def _kohel(curve: Curve, g: Polynomial, h: Polynomial) -> Isogeny:
    """The normalized isogeny whose kernel's nonzero points Q have prod (x - x(Q)) = D = g*h^2,
    g over the points of order 2 and h over one point of each pair +-Q, both monic.

    Kohel's form of Velu's formulas (see the module docstring); the callers
    check the curve identity.  The power sums s_1, s_2, s_3 of D's roots come from its top
    coefficients by Newton's identities.  With t = g'*h + 2*g*h', D' = h*t and
    f*D'^2/D = (f/g)*t^2, as g divides f.  r = num/D and s = r' = (num'*g*h - num*t)/(g^2*h^3)
    come out reduced: r has a double pole at each pair's x and a simple one at each x of
    order 2, and r' a pole of one order more at each.
    """
    f = curve.field
    A, B = int(curve.A), int(curve.B)
    D = g * h * h
    d = D.degree
    e1, e2, e3 = -D[d - 1], D[d - 2], -D[d - 3]
    s1 = e1
    s2 = e1 * s1 - 2 * e2
    s3 = e1 * s2 - e2 * s1 + 3 * e3
    fx = Polynomial(f, (B, A, 0, 1))
    t = g.derivative() * h + 2 * (g * h.derivative())
    Dp = h * t
    num = (Polynomial(f, (-s1, d + 1)) * D - fx.derivative() * Dp - 2 * (fx * Dp.derivative())
           + 2 * (fx.exact_div(g) * t * t))
    r = RationalFunction._reduced(num, D)
    s = RationalFunction._reduced(num.derivative() * g * h - num * t, g * h * D)
    target = Curve(f, A - 5 * (3 * s2 + A * d), B - 7 * (5 * s3 + 3 * A * s1 + 2 * B * d))
    return Isogeny(curve, target, r, s, d + 1, f.one())


def velu(curve: Curve, kernel: list[Point]) -> Isogeny:
    """The normalized (m = 1) separable isogeny with the given rational kernel; its degree counts distinct points."""
    _check_subgroup(curve, kernel)
    points = [P for P in set(kernel) if not P.is_infinity]
    g = Polynomial.from_roots(curve.field, [P.x for P in points if P.y.is_zero()])
    h = Polynomial.from_roots(curve.field, {P.x for P in points if not P.y.is_zero()})
    phi = _kohel(curve, g, h)
    if not phi.curve_identity_holds():
        raise DualPairError("Velu construction left the target curve")
    return phi


def identity_isogeny(curve: Curve) -> Isogeny:
    one = Polynomial.constant(curve.field, 1)
    return _kohel(curve, one, one)


def velu_from_kernel_polynomial(curve: Curve, h: Polynomial) -> Isogeny:
    """The normalized isogeny with odd kernel of kernel polynomial h, through D = h^2 (g = 1).

    h has degree d = (ell-1)/2 and roots the x-coordinates of the kernel's
    point pairs; it need not split over F_p, only have coefficients there.
    Raises BadInputError when h is zero or not actually a kernel polynomial
    (the curve identity fails).
    """
    if h.is_zero():
        raise BadInputError("the zero polynomial is not a kernel polynomial")
    h = h.monic()
    try:
        phi = _kohel(curve, Polynomial.constant(curve.field, 1), h)
    except ValueError:  # a singular target curve, which no kernel polynomial gives
        phi = None
    if phi is None or not phi.curve_identity_holds():
        raise BadInputError("not a kernel polynomial for this curve")
    return phi


# -- construction: division polynomials and multiplication by n --------------------


def _division_polynomials(curve: Curve, wanted) -> dict[int, Polynomial]:
    """n -> the pure-x part of psi_n (psi_n for odd n, psi_n/y for even n), for psi_0..psi_4
    and each n in `wanted` with every psi_n its recurrence reaches, and no other.

    The standard recurrences (Washington, section 3.2) with y^2 = f: psi_(2m+1) reads
    psi_(m-1)..psi_(m+2), and its even-index product carries y^4 = f^2; psi_(2m) reads
    psi_(m-2)..psi_(m+2), and its factor 2y cancels.  So psi_ell, ell = 2d + 1, reads
    nothing above psi_(d+2): the isogeny search's psi_13 leaves out psi_9..psi_12."""
    reach, work = set(), [n for n in wanted if n > 4]
    while work:
        n = work.pop()
        if n not in reach:
            reach.add(n)
            work.extend(k for k in range(n // 2 - 2 + n % 2, n // 2 + 3) if k > 4)
    f = curve.field
    A, B = int(curve.A), int(curve.B)
    fx = Polynomial(f, (B, A, 0, 1))
    f2 = fx * fx
    half = pow(2, -1, f.p)
    psi = {
        0: Polynomial.zero(f),  # psi_0 = 0
        1: Polynomial.constant(f, 1),  # psi_1 = 1
        2: Polynomial.constant(f, 2),  # psi_2 = 2y
        3: Polynomial(f, (-A * A, 12 * B, 6 * A, 0, 3)),
        4: Polynomial(f, (-A**3 - 8 * B * B, -4 * A * B, -5 * A * A, 20 * B, 5 * A, 0, 1)) * 4,  # psi_4 / y
    }
    for n in sorted(reach):
        m = n // 2
        if n % 2:
            a = psi[m + 2] * psi[m] * psi[m] * psi[m]
            b = psi[m - 1] * psi[m + 1] * psi[m + 1] * psi[m + 1]
            psi[n] = a * f2 - b if m % 2 == 0 else a - b * f2
        else:
            diff = psi[m + 2] * psi[m - 1] * psi[m - 1] - psi[m - 2] * psi[m + 1] * psi[m + 1]
            psi[n] = psi[m] * diff * half
    return psi


def division_polynomial(curve: Curve, n: int) -> Polynomial:
    """The pure-x content of psi_n: psi_n itself for odd n, psi_n/y for even."""
    if n < 0:
        raise BadInputError("division polynomials are built for n >= 0")
    return _division_polynomials(curve, (n,))[n]


def _x_of_multiple(psi: dict[int, Polynomial], fx: Polynomial, n: int) -> tuple[Polynomial, Polynomial]:
    """(num, den) with x([n]P) = num/den, as pure-x polynomials:
    num = x*psi_n^2 - psi_(n-1)*psi_(n+1) and den = psi_n^2, where y^2 = f
    enters at psi_n for even n and at its two neighbours for odd n."""
    den, prod = psi[n] * psi[n], psi[n - 1] * psi[n + 1]
    den, prod = (den, fx * prod) if n % 2 else (fx * den, prod)
    return Polynomial.x(fx.field) * den - prod, den


def multiplication_isogeny(curve: Curve, n: int) -> Isogeny:
    """Multiplication by n as a rational map: degree n^2, m = n, for 1 <= n <= 7 (Kohel's map with kernel E[n])."""
    if not 1 <= n <= 7:
        raise BadInputError("multiplication maps are built for 1 <= n <= 7")
    if n % curve.p == 0:
        raise BadInputError("multiplication by a multiple of p is inseparable; use frobenius_isogeny")
    f = curve.field
    g = Polynomial(f, (curve.B, curve.A, 0, 1)) if n % 2 == 0 else Polynomial.constant(f, 1)
    kohel = _kohel(curve, g, division_polynomial(curve, n).monic())
    r = RationalFunction._reduced(kohel.r.num * pow(n, -2, f.p), kohel.r.den)
    s = RationalFunction._reduced(kohel.s.num * pow(n, -3, f.p), kohel.s.den)
    phi = Isogeny(curve, curve, r, s, n * n, f(n))
    if not phi.curve_identity_holds():
        raise DualPairError("multiplication maps left the curve")
    return phi


def frobenius_isogeny(curve: Curve) -> Isogeny:
    """(x, y) -> (x^p, y^p): inseparable, degree p, m = 0 (tiny p only)."""
    f = curve.field
    p = f.p
    r = RationalFunction.from_poly(Polynomial(f, [0] * p + [1]))
    fx = Polynomial(f, (curve.B, curve.A, 0, 1))
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
    every line of E[ell] is rational, and psi_ell is split by lines (see
    `_scalar_kernels`).

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
    fx = Polynomial(f, (curve.B, curve.A, 0, 1))
    d = (ell - 1) // 2
    psi = _division_polynomials(curve, (ell, *range(d + 2)))  # _x_of_multiple reads psi_0..psi_(d+1)
    psi_ell = psi[ell].monic()
    xp = Polynomial.x(f).pow_mod(p, psi_ell)
    candidates: set[Polynomial] = set()
    for lam in eigenvalues:
        num, den = _x_of_multiple(psi, fx, min(lam, ell - lam))
        h = psi_ell.gcd(xp * den - num)
        # Q != O with x(phi Q) = x([lam]Q) has phi Q = +-lam*Q, and -lam is no eigenvalue (the two sum to 1, lam != 0):
        # so h is the lam-eigenspace, a line of degree d, or all of psi_ell when Frobenius is the scalar lam
        if h.degree == d:
            candidates.add(h)
        else:
            candidates.update(_scalar_kernels(psi, fx, h, d))
    for h in sorted(candidates, key=lambda g: g.coeffs):
        try:
            return velu_from_kernel_polynomial(curve, h)
        except BadInputError:
            continue
    raise DualPairError(f"x^2 - x + {p} has a root mod {ell}, but no {ell}-kernel validated")


def _scalar_kernels(psi: dict[int, Polynomial], fx: Polynomial, psi_ell: Polynomial, d: int) -> list[Polynomial]:
    """Every kernel polynomial of degree d when Frobenius is a scalar on E[ell], so that
    each of the ell + 1 lines of E[ell] is rational.

    A line's kernel polynomial prod_(i <= d) (T - x([i]Q)) has coefficients that are
    symmetric in the line's x-values: the closure prod_(i <= d) (T + x([i]x)) mod psi_ell
    has coefficients e_1 = sigma = x + x([2]x) + ... + x([d]x), e_2, ..., e_d that take
    one value each, in F_p, on the d roots of each line.  `_split_by_values` splits
    psi_ell by sigma into unions of whole lines, and each piece of degree d is a kernel
    polynomial.  Lines that share sigma's value make a larger piece, which is split by
    e_2, then e_3 and so on: all d of them tell any two lines apart.
    """
    zero, closure = Polynomial.zero(fx.field), [Polynomial.constant(fx.field, 1)]  # T-coefficients, lowest first
    for i in range(1, d + 1):
        num, den = _x_of_multiple(psi, fx, i)
        xi = num * den.inverse_mod(psi_ell) % psi_ell  # den is a unit: psi_i vanishes only on E[i]
        closure = [(lo + xi * hi) % psi_ell for lo, hi in zip([zero] + closure, closure + [zero])]
    lines = [psi_ell]
    for e in reversed(closure[:-1]):  # sigma, then e_2, ..., e_d
        lines = [piece for g in lines for piece in (_split_by_values(g, e) if g.degree > d else [g])]
    return lines


# -- pairing functoriality -----------------------------------------------------------


def check_functoriality(phi: Isogeny, Pt: DualPoint, Qt: DualPoint, method: str = "rueck", rng=None) -> bool:
    """Whether e_p(phi~(Pt), phi~(Qt)) = e_p(Pt, Qt)^(deg phi) holds exactly; rng is accepted, unused."""
    src = DualCurve.canonical(phi.source)
    tgt = DualCurve.canonical(phi.target)
    before = lifted_pairing(src, Pt, Qt, method=method)
    after = lifted_pairing(tgt, phi.eval_lifted(Pt), phi.eval_lifted(Qt), method=method)
    return after == before ** phi.degree
