"""Integral binary forms: heights, discriminants, roots, Mahler measure,
irreducibility.

A degree-n binary form f(x,y) = f0 x^n + f1 x^(n-1) y + ... + fn y^n is
stored by its coefficient list.  The discriminant and irreducibility are
answered with integer/rational arithmetic only.  Complex roots carry
certified disjoint disks at a requested bit precision; the real root count
is read off them exactly, and the Mahler measure carries a certified error
bound.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

import mpmath as mp

from . import linalg, polys
from .errors import DegenerateForm
from .roots import certified_roots, dyadic, man_exp, to_mpf

DEFAULT_PRECISION = 256
# as many digits as int() reads from a string by default
_MAX_EXPONENT = 4300


@dataclass(frozen=True)
class BinaryForm:
    degree: int
    coeffs: tuple

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("need degree+1 coefficients")
        object.__setattr__(self, "coeffs", tuple(
            c if isinstance(c, Fraction) and c.denominator != 1 else int(c)
            for c in self.coeffs))

    @property
    def is_integral(self):
        return all(isinstance(c, int) for c in self.coeffs)

    def __call__(self, x, y):
        n = self.degree
        acc = 0
        for i, c in enumerate(self.coeffs):
            acc += c * x ** (n - i) * y ** i
        return acc

    def partial_x(self):
        n = self.degree
        cs = [c * (n - i) for i, c in enumerate(self.coeffs[:-1])]
        return BinaryForm(n - 1, cs) if n >= 1 else BinaryForm(0, (0,))

    def partial_y(self):
        n = self.degree
        cs = [c * i for i, c in enumerate(self.coeffs) if i >= 1]
        return BinaryForm(n - 1, cs) if n >= 1 else BinaryForm(0, (0,))

    def content(self):
        g = 0
        for c in self.coeffs:
            if not isinstance(c, int):
                raise ValueError("content of a non-integral form")
            g = gcd(g, abs(c))
        return g

    def primitive(self):
        g = self.content()
        if g in (0, 1):
            return self
        return BinaryForm(self.degree, tuple(c // g for c in self.coeffs))

    def scale(self, s):
        return BinaryForm(self.degree, tuple(Fraction(c) * s for c in self.coeffs))

    def to_json_dict(self):
        return {"degree": self.degree, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, d):
        return cls(parse_number(d["degree"]),
                   tuple(parse_number(c) for c in d["coeffs"]))


def parse_number(x):
    """A number of JSON input: a JSON integer (not a bool), or a string read
    by Fraction ("7", "-3/2", "0.1"), an int when integral.  Anything else,
    a JSON float or bool or null included, raises ValueError: a float would
    be read inexactly or truncated.  So does a decimal exponent beyond
    _MAX_EXPONENT, which Fraction would expand into a huge integer."""
    if isinstance(x, str):
        exp = x.lower().partition("e")[2]
        if exp and abs(int(exp)) > _MAX_EXPONENT:
            raise ValueError("exponent out of range in %r" % x)
        q = Fraction(x)
        return q.numerator if q.denominator == 1 else q
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError("a number must be a JSON integer or a string, got %r"
                     % (x,))


def form_from_linear_factors(factors):
    """Product of (a*x - b*y) factors given as (a, b) pairs."""
    coeffs = [1]
    for a, b in factors:
        new = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i] += c * a
            new[i + 1] += c * (-b)
        coeffs = new
    return BinaryForm(len(coeffs) - 1, tuple(coeffs))


@dataclass(frozen=True)
class RootEntry:
    value: object        # mpc, or None for the root at infinity
    radius: object       # mpf certified error radius; 0 at an exact root
    outside: bool        # assigned to the {|rho| > 1} class
    boundary: bool       # | |rho| - 1 | below the boundary tolerance

    @property
    def at_infinity(self):
        return self.value is None


@dataclass(frozen=True)
class RootSet:
    degree: int
    leading: object      # leading coefficient of f(X,1): the first nonzero f_i
    entries: tuple
    boundary_tol: object

    def inside(self):
        return [e for e in self.entries if not e.outside]


def height(f: BinaryForm):
    """Ht(f) = max |f_i|."""
    return max(abs(c) for c in f.coeffs)


def _univariate_disc(coeffs):
    """Discriminant of a degree-n >= 1 polynomial p with nonzero lead coeff.

    With a the ascending integer coefficients of den·p and b those of its
    derivative, the n x n Bezout matrix B has det B = (-1)^(n(n-1)/2) a_n
    Res(den·p, (den·p)'), so Delta(p) = det B / (a_n^2 den^(2n-2))."""
    n = len(coeffs) - 1
    den, (a,) = linalg.clear_denominators([coeffs[::-1]])
    b = [(j + 1) * x for j, x in enumerate(a[1:])] + [0]
    B = [[0] * n for _ in range(n)]
    for j in range(1, n + 1):
        for i in range(j):
            c = a[i] * b[j] - a[j] * b[i]
            for k in range(j - i):
                B[i + k][j - 1 - k] -= c
    out = Fraction(linalg.bareiss(B)[0], a[n] ** 2 * den ** (2 * n - 2))
    return int(out) if out.denominator == 1 else out


def _shear(f: BinaryForm, t: int):
    """f(x, y + t*x); a determinant-1 substitution, so Delta is unchanged."""
    n = f.degree
    out = [0] * (n + 1)
    for i, c in enumerate(f.coeffs):
        # c * x^(n-i) * (y + t x)^i
        term = [0] * (i + 1)
        b = 1
        for k in range(i + 1):
            term[k] = c * b * t ** (i - k)   # coefficient of x^(n-k) y^k
            b = b * (i - k) // (k + 1)
        for k in range(i + 1):
            out[k] += term[k]
    return BinaryForm(n, tuple(out))


@lru_cache(maxsize=64)
def discriminant(f: BinaryForm):
    """Delta(f), exact.

    Computed as the degree-n discriminant of f(X,1) when f0 != 0; otherwise a
    unimodular shear makes the leading coefficient nonzero first.  The sign
    normalization is the one matching the splitting-field product formula
    (validated against split examples in the test suite).
    """
    if all(c == 0 for c in f.coeffs):
        return 0
    if f.degree <= 1:
        return 1
    if f.coeffs[0] != 0:
        return _univariate_disc(list(f.coeffs))
    for t in range(1, f.degree + 2):
        if f(1, t) != 0:
            return discriminant(_shear(f, t))
    return 0


@lru_cache(maxsize=64)
def complex_roots(f: BinaryForm, precision=DEFAULT_PRECISION) -> RootSet:
    """Certified projective roots of f; f0 = 0 contributes a root at infinity.

    Roots are split into the {|rho| <= 1} and {|rho| > 1} classes with a
    boundary tolerance of 2^-ceil(precision/2); boundary roots keep their
    side but are flagged.  A centre z is outside when |z| > 1 +
    2^-(precision + 16), so an exact root on the circle stays inside, and
    each class is one integer comparison of |z|^2 (`_classes`).  The RootSet
    is frozen and cached per (f, precision): one item's real-root count,
    covariant and Mahler measure share it.
    """
    if discriminant(f) == 0:
        raise DegenerateForm("form has zero discriminant")
    coeffs = list(f.coeffs)
    n_inf = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        n_inf += 1
    n_zero = 0
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
        n_zero += 1
    pairs = certified_roots(coeffs, precision) if len(coeffs) > 1 else []
    h = -(-precision // 2)
    entries = [RootEntry(mp.mpc(0), mp.mpf(0), False, False)] * n_zero
    entries += [RootEntry(z, r, *_classes(z, precision + 16, h))
                for z, r in pairs]
    entries += [RootEntry(None, mp.mpf(0), True, False)] * n_inf
    return RootSet(f.degree, coeffs[0], tuple(entries), dyadic(1, -h))


def _classes(z, t, h):
    """(|z| > 1 + 2^-t, ||z| - 1| <= 2^-h) for an mpc z and t >= h >= 1, on
    |z|^2 / 2^e as an integer."""
    (a, ea), (b, eb) = man_exp(z.real), man_exp(z.imag)
    e = min(2 * ea, 2 * eb, -2 * t)
    q = (a * a << 2 * ea - e) + (b * b << 2 * eb - e)
    u = -2 * h - e
    return (q > ((1 << t) + 1) ** 2 << -2 * t - e,
            ((1 << h) - 1) ** 2 << u <= q <= ((1 << h) + 1) ** 2 << u)


def mahler_measure_with_error(f: BinaryForm, precision=DEFAULT_PRECISION):
    """(value, certified absolute error bound) for the Mahler measure.

    This is |c| in the normalized factorization of f into (x - omega y) and
    (eta x - y) factors: the absolute leading coefficient of f(X,1) times the
    product of the moduli of its roots outside the unit circle.  Roots at
    infinity reduce the degree and contribute nothing.
    """
    rs = complex_roots(f, precision)
    with mp.workprec(precision + 16):
        lead = abs(to_mpf(rs.leading))
        lo = hi = mp.mpf(1)
        for e in rs.entries:
            if e.at_infinity or not e.outside:
                continue
            mag = abs(e.value)
            lo *= max(mag - e.radius, mp.mpf(0))
            hi *= mag + e.radius
        value = lead * mp.sqrt(lo * hi) if lo > 0 else lead * hi / 2
        err = lead * (hi - lo) + mp.mpf(2) ** (-precision) * (1 + lead * hi)
        return value, err


def mahler_measure(f: BinaryForm, precision=DEFAULT_PRECISION):
    return mahler_measure_with_error(f, precision)[0]


def real_root_count(f: BinaryForm, precision=DEFAULT_PRECISION) -> int:
    """Number of real projective roots, read off the root certificate.

    The roots at 0 and at infinity are real.  Every other entry of
    `complex_roots(f, precision)` is the centre of a disk holding exactly one
    root, and the disks are pairwise disjoint.  A disk centred on the real
    axis is its own mirror image, and the conjugate of its root is a root in
    the same disk, so that root is real.  A non-real centre is paired with
    its exact conjugate, whose disk is the mirror image and disjoint from
    it, so the disk cannot meet the real axis and its root is not real.  The
    count is exact; it raises DegenerateForm for Delta(f) = 0 and
    PrecisionExhausted when the roots do not certify at `precision`.
    """
    return sum(e.at_infinity or e.value.imag == 0
               for e in complex_roots(f, precision).entries)


def leading_coefficient_bound_check(f: BinaryForm,
                                    precision=DEFAULT_PRECISION) -> bool:
    """mahler(f)^2 <= n * sum(f_i^2), within the certified root error."""
    if f.coeffs[0] == 0 or f.coeffs[-1] == 0:
        raise DegenerateForm("f0*fn = 0")
    value, err = mahler_measure_with_error(f, precision)
    bound = f.degree * sum(Fraction(c) ** 2 for c in f.coeffs)
    with mp.workprec(precision + 16):
        return bool((value - err) ** 2 <= to_mpf(bound) + err)


# ----------------------------------------------------------------------------
# irreducibility over Q


_WITNESS_PRIMES = 25
_MAX_MODULAR_FACTORS = 16
_RATIONAL_ROOT_CAP = 20000


def _divisors(n, cap):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n and len(out) < cap:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out) if d * d > n else None


def _rational_root(p):
    """A rational root of the integer polynomial p, or None (bounded search)."""
    p = polys.ptrim(p)
    if p[-1] == 0:
        return Fraction(0)
    nums = _divisors(p[-1], _RATIONAL_ROOT_CAP)
    dens = _divisors(p[0], _RATIONAL_ROOT_CAP)
    if nums is None or dens is None:
        return None
    powers = [(b, [b ** i for i in range(len(p))]) for b in dens]
    for a in nums:
        for b, bpow in powers:
            for x in (a, -a):
                # b^n p(x/b) = sum of p_i x^(n-i) b^i, by Horner's rule
                acc = 0
                for c, y in zip(p, bpow):
                    acc = acc * x + c * y
                if acc == 0:
                    return Fraction(x, b)
    return None


def _norm2_sq(p):
    return sum(c * c for c in p)


def is_irreducible(f: BinaryForm):
    """Three-valued irreducibility over Q[x,y]: True, False, or None (unknown).

    True comes from a modular witness (f irreducible mod p for a good prime),
    or from exhausting all modular factor recombinations at one big prime.
    False comes from an exhibited factorization (y-factor, rational root,
    repeated factor, or a recombined modular factor that divides).
    """
    if all(c == 0 for c in f.coeffs):
        return False
    n = f.degree
    if n == 0:
        return False
    if not f.is_integral:
        f = BinaryForm(n, linalg.clear_denominators([f.coeffs])[1][0])
    f = f.primitive()
    if f.coeffs[0] == 0:
        # y divides f; only a linear form survives that
        return n == 1
    if n == 1:
        return True
    p = [int(c) for c in f.coeffs]
    if _rational_root(p) is not None:
        return False
    disc = discriminant(f)
    if disc == 0:
        return False
    # modular witness
    bad = abs(p[0] * disc)
    tried = 0
    q = 2
    while tried < _WITNESS_PRIMES:
        q = polys.next_prime(q)
        if bad % q == 0:
            continue
        tried += 1
        if polys.pm_is_irreducible(p, q):
            return True
    # big-prime Zassenhaus: factor mod one prime beyond the Mignotte bound,
    # then try all small subsets as rational divisors
    bound = 2 ** (n + 1) * polys.isqrt_ceil(_norm2_sq(p)) * abs(p[0])
    P = polys.next_prime(max(2 * bound, 101))
    while bad % P == 0:
        P = polys.next_prime(P)
    rng = random.Random(0x5EED ^ n)
    factors = polys.pm_factor(p, P, rng)
    r = len(factors)
    if r == 1:
        return True
    if r > _MAX_MODULAR_FACTORS:
        return None
    half = P // 2

    def lift(poly):
        return [c - P if c > half else c for c in poly]

    for size in range(1, r // 2 + 1):
        for subset in combinations(range(r), size):
            prod = [p[0] % P]
            for i in subset:
                prod = polys.pm_mul(prod, factors[i], P)
            cand = polys.primitive_part(lift(prod))
            if polys.pdeg(cand) in (0, n):
                continue
            quo, rem = polys.pdivmod(p, cand)
            if polys.pdeg(rem) < 0 and all(
                    Fraction(c).denominator == 1 for c in quo):
                return False
    return True
