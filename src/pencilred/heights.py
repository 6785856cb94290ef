"""Divisor and point heights, the density-1 family filter, and the explicit
height inequalities with their constant.

The family F_delta(X) consists of irreducible integral forms of height < X
with |Delta(f)| >= X^(2n-2-delta); on it, the covariant norm of the
distinguished vector obeys an explicit upper bound whose constant kappa_{n,m}
is assembled from two elementary estimates: a product bound on the root
differences and a bound keeping the roots near the unit circle.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .covariant import gram_det_with_error, reduction_covariant
from .errors import HeightExceedsCutoff, NotFound, NotPrimitive
from .forms import (DEFAULT_PRECISION, BinaryForm, discriminant, height,
                    is_irreducible, mahler_measure_with_error)
from .orbits import (DivisorSpec, datum_from_divisor, integralize,
                     norm_of_one_formula, pencil_from_datum)
from .reduce import form_norm

INEQ_TOLERANCE = 1e-9
# states the vector-length check lets integralize explore
MAX_STATES = 1200


@dataclass(frozen=True)
class FamilyParams:
    X: float
    delta: float

    def __post_init__(self):
        if not 0 < self.X < math.inf:
            raise ValueError("X must be positive and finite")
        if not 0 <= self.delta < 1:
            raise ValueError("delta must lie in [0, 1)")


@dataclass(frozen=True)
class BoundCheck:
    lhs: object
    rhs: object
    holds: bool
    flags: tuple = ()

    def to_json_dict(self):
        return {"lhs": mp.nstr(mp.mpf(self.lhs), 20),
                "rhs": mp.nstr(mp.mpf(self.rhs), 20),
                "holds": self.holds, "flags": list(self.flags)}


def divisor_height(U: BinaryForm):
    """h(D) = log max |u_i| for the primitive form U cutting out pi(D)."""
    if not U.is_integral or U.content() != 1:
        raise NotPrimitive("U must be a primitive integral form")
    return mp.log(max(abs(c) for c in U.coeffs))


def point_height_bound_check(minpoly: BinaryForm, U: BinaryForm,
                             precision=DEFAULT_PRECISION) -> bool:
    """|h(D) - m*h(pi(P))| <= m log 2 for the Galois orbit D of a point.

    m*h(pi(P)) is computed as the log Mahler measure of the primitive minimal
    polynomial, the standard expression for the Weil height.
    """
    m = minpoly.degree
    hd = divisor_height(U)
    with mp.workprec(precision + 16):
        value, err = mahler_measure_with_error(minpoly.primitive(), precision)
        mh = mp.log(value)
        slack = err / value + INEQ_TOLERANCE
        return bool(abs(hd - mh) <= m * mp.log(2) + slack)


def family_membership(f: BinaryForm, fp: FamilyParams,
                      precision=DEFAULT_PRECISION) -> bool:
    """f irreducible and |Delta(f)| >= X^(2n-2-delta); requires Ht(f) < X.

    The comparison rounds outward: anything uncertain (including an unknown
    irreducibility verdict) is excluded.
    """
    if height(f) >= fp.X:
        raise HeightExceedsCutoff("Ht(f) must be below X")
    if is_irreducible(f) is not True:
        return False
    d = abs(discriminant(f))
    if d == 0:
        return False
    n = f.degree
    with mp.workprec(precision + 16):
        lhs = mp.log(d)
        rhs = (2 * n - 2 - mp.mpf(fp.delta)) * mp.log(mp.mpf(fp.X))
        return bool(lhs >= rhs + mp.mpf(2) ** (-precision // 2))


def kappa_constant(n: int, m: int):
    """kappa_{n,m} = n log(n(m+1) 2^((n-1)^2))
                     + (n(2n-3)-1) * (1/2) log(n(n+1))."""
    with mp.extraprec(32):
        first = n * mp.log(n * (m + 1) * mp.mpf(2) ** ((n - 1) ** 2))
        second = (n * (2 * n - 3) - 1) * mp.log(n * (n + 1)) / 2
        return first + second


def _require_family(f, fp, precision):
    if not family_membership(f, fp, precision):
        raise HeightExceedsCutoff("f is not in the family F_delta(X)")


def prop_bound_check(f: BinaryForm, U: BinaryForm, fp: FamilyParams,
                     precision=DEFAULT_PRECISION) -> BoundCheck:
    """Root-sum bound on the family: n log(S) - log|c| against
    n h(U) - (n+1) log X + n delta log X + kappa_{n,m}."""
    _require_family(f, fp, precision)
    return _prop_bound(f, U, fp, precision)


def _rhs(n, U, fp):
    """n h(U) - (n+1) log X + n delta log X + kappa_{n,m}, m = deg U, at
    the working precision: the right-hand side of both height checks."""
    logX = mp.log(mp.mpf(fp.X))
    return (n * divisor_height(U) - (n + 1) * logX
            + n * mp.mpf(fp.delta) * logX + kappa_constant(n, U.degree))


def _prop_bound(f, U, fp, precision):
    """prop_bound_check for an f already known to be in the family."""
    n = f.degree
    ds = DivisorSpec(f, U, 1)   # w is irrelevant to the root sum
    with mp.workprec(precision + 32):
        S = norm_of_one_formula(ds, precision)
        mah, mah_err = mahler_measure_with_error(f, precision)
        lhs = n * mp.log(S) - mp.log(mah)
        rhs = _rhs(n, U, fp)
        slack = INEQ_TOLERANCE + mah_err / mah
        holds = bool(lhs <= rhs + slack)
    return BoundCheck(lhs, rhs, holds)


def vector_length_bound_check(ds: DivisorSpec, fp: FamilyParams,
                              precision=DEFAULT_PRECISION) -> BoundCheck:
    """Covariant-norm bound along the full pipeline: the divisor is turned
    into its orbit pencil and the distinguished vector is measured against
    the reduction covariant.  A bounded integralization search then only
    sets the flags (see `_vector_length_bound`)."""
    _require_family(ds.f, fp, precision)
    return _vector_length_bound(ds, fp, precision)


def _vector_length_bound(ds, fp, precision):
    """vector_length_bound_check for a divisor whose f is already known to
    be in the family.

    lhs = n log q(1) - log det H is read off the rational orbit pencil of
    `pencil_from_datum`: for g in the unimodular rational group,
    H_{g.p} = g^-T H_p g^-1 and |det g| = 1, so it is the same on every
    pencil of the orbit.  `integralize` runs afterwards and only flags
    whether an integral representative was found ("integralized", after
    "one_bar_not_integral" when the transported vector is not integral)
    or not ("rational_pencil").
    """
    n = ds.f.degree
    # datum_from_divisor enforces deg U = 2g - 1, the m of kappa_{n,m}
    p, one_bar = pencil_from_datum(datum_from_divisor(ds))
    H = reduction_covariant(p, precision)
    with mp.workprec(precision + 32):
        q = form_norm(H, one_bar, precision)
        det_h, _ = gram_det_with_error(H)
        lhs = n * mp.log(q) - mp.log(det_h)
        rhs = _rhs(n, ds.U, fp)
        holds = bool(lhs <= rhs + INEQ_TOLERANCE + n * H.error_bound)
    try:
        vec = integralize(p, max_states=MAX_STATES).transport(one_bar)
        flags = ("integralized",)
        if any(Fraction(v).denominator != 1 for v in vec):
            flags = ("one_bar_not_integral",) + flags
    except NotFound:
        flags = ("rational_pencil",)
    return BoundCheck(lhs, rhs, holds, flags)
