"""Orbit construction: arithmetic in L_f = Q[X]/(f(X,1)), pencils from orbit
data (alpha, z), data from divisors on the hyperelliptic curve z^2 = f(x,y),
integralization, and the covariant norm of the distinguished vector.

L_f arithmetic rests on one kernel, multiplication by X (`_x_powers`): it
builds the class of a polynomial, products, multiplication matrices and the
Hankel values of the orbit pencil.

The pencil attached to a valid datum is written in the basis
{z*1, X, ..., X^(n-1)} of L_f, whose determinant against the power basis is
z; in that basis the two Gram matrices have entries f0^-1 tau(alpha b_i b_j)
and f0^-1 tau(X alpha b_i b_j), where tau reads off the X^(n-1) coordinate.
The distinguished vector 1 has coordinates (1/z, 0, ..., 0).
"""

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

import mpmath as mp

from . import linalg, polys
from .errors import (DivisorMeetsWeierstrass, InconsistentW, InvalidDatum,
                     NotFound, NotPrimitive, PreconditionError)
from .forms import (DEFAULT_PRECISION, BinaryForm, complex_roots,
                    parse_number)
from .pencil import Pencil, integral, invariant_form
from .roots import horner, man_exp


@dataclass(frozen=True)
class AlgebraElement:
    """Element of L_f = Q[X]/(f(X,1)), coordinates in the power basis
    1, X, ..., X^(n-1) (ascending)."""
    modulus: BinaryForm
    coeffs: tuple

    def __post_init__(self):
        if self.modulus.coeffs[0] == 0:
            raise ValueError("modulus must have f0 != 0")
        n = self.modulus.degree
        cs = tuple(Fraction(c) for c in self.coeffs)
        if len(cs) != n:
            raise ValueError("need exactly n coordinates")
        object.__setattr__(self, "coeffs", cs)

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.modulus, tuple(
            a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.modulus, tuple(
            a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(self.modulus, tuple(linalg.mat_vec(
                other.multiplication_matrix(), self.coeffs)))
        return AlgebraElement(self.modulus, tuple(
            Fraction(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e):
        result = one(self.modulus)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def _check(self, other):
        if self.modulus != other.modulus:
            raise ValueError("elements of different algebras")

    def multiplication_matrix(self):
        """Matrix of multiplication by self on the power basis (columns are
        the images of X^j)."""
        return linalg.transpose(
            _x_powers(self.modulus, self.coeffs, self.modulus.degree))


def _x_powers(f: BinaryForm, c, count):
    """[c, X·c, ..., X^(count-1)·c] in L_f as ascending coordinate lists.
    Each step shifts the coordinates up one place and folds the X^n term
    back with the monic tail X^n = -(f_n + f_(n-1) X + ... + f_1 X^(n-1))/f0
    of f(X,1)."""
    f0 = Fraction(f.coeffs[0])
    tail = [-Fraction(x) / f0 for x in reversed(f.coeffs[1:])]
    cur = list(c)
    out = [cur]
    for _ in range(count - 1):
        top = cur[-1]
        cur = [Fraction(0)] + cur[:-1]
        if top:
            cur = [x + top * t for x, t in zip(cur, tail)]
        out.append(cur)
    return out[:count]


def element_from_poly(f: BinaryForm, coeffs_ascending):
    """The class of a polynomial in X of any length, by Horner's rule."""
    acc = [Fraction(0)] * f.degree
    for c in reversed(coeffs_ascending):
        acc = _x_powers(f, acc, 2)[1]
        acc[0] += Fraction(c)
    return AlgebraElement(f, tuple(acc))


def one(f: BinaryForm):
    return element_from_poly(f, [1])


def generator(f: BinaryForm):
    """The class of X."""
    return element_from_poly(f, [0, 1])


def tau_functional(a: AlgebraElement):
    """Coefficient of X^(n-1) of the reduced representative (the dual-basis
    functional attached to the top power)."""
    return a.coeffs[-1]


def norm(a: AlgebraElement):
    """Determinant of multiplication by a, exact."""
    return Fraction(linalg.det_exact(a.multiplication_matrix()))


@dataclass(frozen=True)
class OrbitDatum:
    f: BinaryForm
    alpha: AlgebraElement
    z: Fraction

    def __post_init__(self):
        object.__setattr__(self, "z", Fraction(self.z))
        if self.z == 0:
            raise ValueError("z must be nonzero")
        if self.alpha.modulus != self.f:
            raise ValueError("alpha must live in L_f")

    def to_json_dict(self):
        return {"f": self.f.to_json_dict(),
                "alpha": [str(c) for c in self.alpha.coeffs],
                "z": str(self.z)}

    @classmethod
    def from_json_dict(cls, d):
        f = BinaryForm.from_json_dict(d["f"])
        alpha = AlgebraElement(f, tuple(parse_number(s) for s in d["alpha"]))
        return cls(f, alpha, parse_number(d["z"]))


_NORM_EQUATION = "z^2 N(alpha) != f0^(n+1)"


def validate_datum(d: OrbitDatum) -> bool:
    """Exact check of z^2 N(alpha) = f0^(n+1)."""
    n = d.f.degree
    return d.z ** 2 * norm(d.alpha) == Fraction(d.f.coeffs[0]) ** (n + 1)


def pencil_from_datum(d: OrbitDatum):
    """Pencil of the orbit of (alpha, z), plus the distinguished vector.

    Basis {z*1, X, ..., X^(n-1)}; returns (p, one_bar) with one_bar the
    coordinates (1/z, 0, ..., 0) of 1 in that basis.  The invariant form of
    p is z^2 N(alpha) / f0^(n+1) * f, so comparing it with f is the norm
    equation of `validate_datum`; InvalidDatum when they differ.  Pencil
    rejects odd n, and there the norm equation is answered first.
    """
    f = d.f
    n = f.degree
    if n % 2 and not validate_datum(d):
        raise InvalidDatum(_NORM_EQUATION)
    f0 = Fraction(f.coeffs[0])
    # t[k] = f0^-1 tau(alpha X^k) for k = 0..2n-1
    t = [v[-1] / f0 for v in _x_powers(f, d.alpha.coeffs, 2 * n)]
    z = d.z
    A = [[Fraction(0)] * n for _ in range(n)]
    B = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            scale = z ** ((i == 0) + (j == 0))
            A[i][j] = scale * t[i + j]
            B[i][j] = scale * t[i + j + 1]
    p = Pencil(n, tuple(tuple(r) for r in A), tuple(tuple(r) for r in B))
    if invariant_form(p) != f:
        raise InvalidDatum(_NORM_EQUATION)
    one_bar = tuple([1 / z] + [Fraction(0)] * (n - 1))
    return p, one_bar


@dataclass(frozen=True)
class DivisorSpec:
    """Effective degree-(2g-1) divisor data: the primitive image form U, and
    the product w of the z-coordinates of its points."""
    f: BinaryForm
    U: BinaryForm
    w: Fraction

    def __post_init__(self):
        object.__setattr__(self, "w", Fraction(self.w))
        if self.w == 0:
            raise ValueError("w must be nonzero")

    @property
    def genus(self):
        return (self.f.degree - 2) // 2

    def affine_degree(self):
        """Degree k of U(X,1) and its leading coefficient u_k."""
        cs = polys.ptrim(self.U.coeffs)
        return len(cs) - 1, cs[0]

    def to_json_dict(self):
        return {"f": self.f.to_json_dict(), "U": self.U.to_json_dict(),
                "w": str(self.w)}

    @classmethod
    def from_json_dict(cls, d):
        return cls(BinaryForm.from_json_dict(d["f"]),
                   BinaryForm.from_json_dict(d["U"]), parse_number(d["w"]))


def datum_from_divisor(ds: DivisorSpec) -> OrbitDatum:
    """(alpha, z) = (U(X,1) mod f(X,1), u_k^-(g+1) f0^(n-1) w^-1).

    N(alpha) = Res(f(X,1), U(X,1)) / f0^deg U with f0 != 0, so it is 0
    exactly when U shares a root with f; then z^2 N(alpha) = 0 != f0^(n+1).
    A datum failing `validate_datum` thus raises DivisorMeetsWeierstrass
    when N(alpha) = 0 and InconsistentW otherwise."""
    f = ds.f
    n = f.degree
    if n < 4 or n % 2:
        raise PreconditionError("divisor pipeline needs even degree n >= 4")
    if f.coeffs[0] == 0:
        raise PreconditionError("f0 must be nonzero")
    g = ds.genus
    if ds.U.degree != 2 * g - 1:
        raise PreconditionError("U must have degree 2g-1")
    if ds.U.is_integral and ds.U.content() != 1:
        raise NotPrimitive("U must be primitive")
    k, u_k = ds.affine_degree()
    z = Fraction(f.coeffs[0]) ** (n - 1) / (Fraction(u_k) ** (g + 1) * ds.w)
    alpha = element_from_poly(f, list(reversed(list(ds.U.coeffs))))
    d = OrbitDatum(f, alpha, z)
    if not validate_datum(d):
        if norm(alpha) == 0:
            raise DivisorMeetsWeierstrass("U shares a factor with f")
        raise InconsistentW("w is inconsistent with U on the curve")
    return d


def norm_of_one_formula(ds: DivisorSpec, precision=DEFAULT_PRECISION):
    """Root-sum formula for the covariant norm of the distinguished vector:
    sum |U(w,1)|/|f_x(w,1)| over roots inside the unit circle plus
    sum |U(1,1/w)|/|f_y(1,1/w)| over the rest.

    The certified roots are exact dyadics w = (x + iy)/2^s, so U, f_x and
    f_y are evaluated there exactly, by Gaussian-integer Horner on their
    integer coefficients (`roots.horner`).  Outside the circle the terms
    use U(1,1/w) = w^-m·U(w,1) and f_y(1,1/w) = w^-(n-1)·f_y(w,1), m the
    degree of U: the same quantity at the same point.  Each squared term
    is then a quotient of integers, times 2^(2sk) inside and |x + iy|^(2k)
    outside, k = n - 1 - m, and costs one square root."""
    f = ds.f
    if f.coeffs[0] == 0:
        raise PreconditionError("f0 must be nonzero")
    rs = complex_roots(f, precision)
    du, (U,) = linalg.clear_denominators([ds.U.coeffs])
    df, (fx, fy) = linalg.clear_denominators(
        [f.partial_x().coeffs, f.partial_y().coeffs])
    k = f.degree - 1 - ds.U.degree
    with mp.workprec(precision + 32):
        total = mp.mpf(0)
        for e in rs.entries:
            (x, ex), (y, ey) = man_exp(e.value.real), man_exp(e.value.imag)
            s = max(0, -ex, -ey)
            x, y = x << ex + s, y << ey + s
            ur, ui = horner(U, x, y, s, exact=True)[:2]
            dr, di = horner(fy if e.outside else fx, x, y, s, exact=True)[:2]
            num, den = ur * ur + ui * ui, dr * dr + di * di
            if e.outside:
                r2 = x * x + y * y
                num, den = num * r2 ** max(0, k), den * r2 ** max(0, -k)
            else:
                num, den = num << max(0, 2 * s * k), den << max(0, -2 * s * k)
            total += mp.sqrt(mp.mpf(num) / den)
        return mp.mpf(total * df / du)


# ----------------------------------------------------------------------------
# integralization


@dataclass(frozen=True)
class IntegralizeResult:
    pencil: Pencil
    transform: tuple     # rational matrix g with act(g, input) = pencil

    def transport(self, vec):
        """Coordinates of a vector in the integral basis."""
        return tuple(linalg.mat_vec([list(r) for r in self.transform],
                                    [Fraction(v) for v in vec]))


# most F_p-lines (projective points) tried per overlattice or sublattice step
_LINE_CAP = 64


def _lattice_key(d, B):
    """The key (d', H) of the lattice (row span of B)/d, for B upper
    triangular with a positive diagonal: H is the row HNF of B
    (`linalg.hnf_reduce`), both divided by gcd(d, H) to be canonical.  Also
    returns the row operations (j, i, m), row j -= m·row i with j < i, that
    take B to H, for `_congruence`."""
    B = list(B)
    ops = linalg.hnf_reduce(B)
    g = d
    for row in B:
        g = gcd(g, *row)
        if g == 1:
            return (d, tuple(map(tuple, B))), ops
    return (d // g, tuple(tuple(x // g for x in row) for row in B)), ops


def _congruence(G, ops):
    """Mirror the row operations of `_lattice_key` on a Gram, in place:
    row j -= m·row i, then column j -= m·column i."""
    for j, i, m in ops:
        G[j] = [u - m * v for u, v in zip(G[j], G[i])]
        for row in G:
            row[j] -= m * row[i]
    return G


def _grams_of(K, grams, s):
    """The Grams K·G·Kᵀ/s of the rows of K, as fresh lists."""
    return [[[x // s for x in row] for row in linalg.gram(K, G)]
            for G in grams]


def _replace_row_and_column(grams, c, cols, diags):
    """Copies of the Grams with row and column c replaced by cols and the
    entry (c, c) by diags."""
    out = []
    for G, col, diag in zip(grams, cols, diags):
        G = [list(row) for row in G]
        G[c] = list(col)
        for row, v in zip(G, col):
            row[c] = v
        G[c][c] = diag
        out.append(G)
    return out


def _shrink_to_integral(grams, s, known):
    """Largest sublattice on which both forms pair integrally with
    everything, given the two Grams of a basis over the denominator s.
    Returns its rows as integer combinations of that basis; known is the
    set of primes found so far (see `_primes`)."""
    t = gcd(s, *(x for G in grams for row in G for x in row))
    D = s // t       # the lcm of the denominators of both Grams
    M = [[x // t % D for x in row] for G in grams for row in G]
    return linalg.kernel_mod(M, D, _primes(D, known))


def _fp_lines(basis, p):
    """Representatives of the projective lines spanned by an F_p basis, at
    most _LINE_CAP: basis[i] for each i in turn plus the later vectors times
    the base-p digits of t = 0, 1, ..., so the tails are in lexicographic
    order.  range(p ** m) is lazy: a large p builds nothing large."""
    out = []
    for i, lead in enumerate(basis):
        tail = basis[:i:-1]
        for t in range(p ** len(tail)):
            vec = [a % p for a in lead]
            for b in tail:
                t, c = divmod(t, p)     # the next digit, lowest first
                if c:
                    vec = [(a + c * x) % p for a, x in zip(vec, b)]
            if any(vec):
                out.append(vec)
                if len(out) >= _LINE_CAP:
                    return out
    return out


def _primes(m, known):
    """{prime: exponent} of m in increasing order, or NotFound when trial
    division cannot find them (a composite with no prime below 10^6).
    known is the set of primes one search has found so far: they are
    divided out first, and only the cofactor left is trial-divided."""
    out = {}
    for p in known:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m > 1:
        try:
            out.update(polys.factor_trial(m))
        except ValueError as exc:
            raise NotFound(str(exc)) from exc
        known.update(out)
    return dict(sorted(out.items()))


def _grow_candidates(H, GA, GB, p):
    """Index-p overlattices L + (1/p)·x·H keeping both forms integral, for
    L = (row span of H)/d with integral Grams GA, GB, each as (B, grams):
    B = C·H is a basis of the overlattice times d·p and grams its two
    Grams over a·(d·p)^2.

    x must pair into pZ with the whole lattice (x in the kernel of both
    Grams mod p) and have both self-pairings divisible by p^2.  No other
    representative of the line helps: as G·x = 0 mod p,
    q(λx + p·w) = λ^2·q(x) + 2pλ·w·Gx + p^2·q(w) = λ^2·q(x) mod p^2 for
    every λ, and the overlattice of λx + p·w adds only w·H, which lies
    in L.  So x is scaled to x' with x'_c = 1 at its first nonzero
    coordinate c, and the basis and Grams of the overlattice are the
    rank-one replacement that `integralize` describes.
    """
    Ht = linalg.transpose(H)
    pH = [[p * v for v in row] for row in H]
    pp = p * p
    out = []
    for x in _fp_lines(linalg.fp_nullspace(GA + GB, p), p):
        c = next(i for i, v in enumerate(x) if v)
        inv = pow(x[c], -1, p)
        x = [v * inv % p for v in x]
        cols, diags = [], []
        for G in (GA, GB):
            Gx = linalg.mat_vec(G, x)
            qx = sum(map(mul, x, Gx))
            if qx % pp:
                break
            cols.append([v // p for v in Gx])
            diags.append(qx // pp)
        else:
            B = list(pH)
            B[c] = linalg.mat_vec(Ht, x)
            out.append((B, _replace_row_and_column((GA, GB), c, cols,
                                                   diags)))
    return out


def _sublattice_candidates(H, GA, GB, p):
    """Index-p sublattices K·H of the row span of H, K the HNF kernel of a
    line mod p, so K·H is upper triangular with a positive diagonal, each
    as (K·H, grams) with grams its Grams K·G·Kᵀ."""
    out = []
    for lam in _fp_lines(linalg.identity_matrix(len(H)), p):
        K = linalg.kernel_mod([lam], p, {p: 1})
        out.append((linalg.mat_mul(K, H), _grams_of(K, (GA, GB), 1)))
    return out


def integralize(p: Pencil, max_states=8000) -> IntegralizeResult:
    """Search for an integral pencil in the unimodular rational orbit.

    Best-effort: a shrink-to-integral pass followed by a best-first search
    over index-p overlattices (and index-p sublattices when the covolume
    drops below 1), one prime at a time: a state is expanded only at the
    smallest prime q of its covolume's numerator (below covolume 1, of its
    denominator), so it finishes prime 2 before it touches prime 3 and the
    search costs a sum over the primes, not a product.  This loses no
    solution: an index-q move leaves L ⊗ Z_l unchanged for every prime
    l != q, so integrality at l and the l-adic valuation of the covolume do
    not depend on the q-moves, and whether the search can finish at l does
    not depend on the solution it took at q (a lattice is the intersection
    of its completions; Cohen, GTM 138, 2.4).

    A state is a lattice (d, H), the row span of H/d with H in row HNF, so
    its covolume is prod H_ii / d^n.  With the pencil written as (A/a, B/a)
    over one common denominator a, the Grams of a state are H·A·Hᵀ and
    H·B·Hᵀ over a·d^2; only the seeds compute them so.  Every other state
    is pushed as an upper-triangular basis with a positive diagonal, built
    from its parent's H, with its Grams in that basis built from its
    parent's Grams:
    - an overlattice by the line x mod q, scaled to x' with x'_c = 1 at
      its first nonzero coordinate c, has the basis C·H over d·q, C = q·I
      with row c replaced by x' (the HNF of qZ^n + Zx), and the parent's
      Grams G with row and column c replaced by G·x'/q and the entry (c, c)
      by x'ᵀGx'/q^2.  These are integers exactly when x' passes the q^2
      test of `_grow_candidates`, since G·x' = 0 mod q: a rank-one
      replacement, one G·x' per form;
    - a sublattice K·H (K the HNF kernel of a line mod q) has the Grams
      K·G·Kᵀ.
    When a state is pushed, its basis is reduced to HNF by unit
    upper-triangular row operations and its key checked against the states
    seen (`_lattice_key`); a repeat is dropped there.  A new state mirrors
    each row operation on both Grams as a congruence (`_congruence`), reads
    its covolume off the key and enters the heap once, ordered by
    (|log covol|, log of its largest Gram entry, push order).  Every lattice
    on the heap pairs integrally under both forms: the seeds are shrunk to
    integral, an overlattice is kept only if both forms stay integral and a
    sublattice inherits it.
    Raises NotFound once the state budget is exhausted, or when a
    denominator or covolume cannot be factored by trial division; that is
    not a disproof.
    """
    f = invariant_form(p)
    if not f.is_integral:
        raise PreconditionError("invariant form of the pencil is not integral")
    n = p.n
    if p.is_integral:
        ident = tuple(tuple(Fraction(int(i == j)) for j in range(n))
                      for i in range(n))
        return IntegralizeResult(p, ident)
    a, A, B = integral(p)

    seen = set()
    known = set()
    heap = []

    def push(d, B, grams):
        key, ops = _lattice_key(d, B)
        if key in seen:
            return
        seen.add(key)
        GA, GB = (_congruence(G, ops) for G in grams)
        d, H = key
        covol = Fraction(math.prod(H[i][i] for i in range(n)), d ** n)
        # prefer a covolume near 1, then small Gram entries (more reduced),
        # then the earlier push (len(seen) counts them)
        size = max(1, *(max(map(abs, row)) for G in (GA, GB) for row in G))
        heapq.heappush(heap, (
            abs(math.log(covol.numerator) - math.log(covol.denominator)),
            math.log(size), len(seen), covol, key, GA, GB))

    # seeds: the integral hull of Z^n and of its q-refinements, in HNF, with
    # the Grams K·A·Kᵀ and K·B·Kᵀ over a·q^2
    for q in [1, *_primes(a, known)]:
        K = _shrink_to_integral((A, B), a * q * q, known)
        push(q, K, _grams_of(K, (A, B), a * q * q))
    explored = 0
    while heap and explored < max_states:
        *_, covol, (d, H), GA, GB = heapq.heappop(heap)
        explored += 1
        if covol == 1:
            return _finish(p, d, H, GA, GB)
        # one prime at a time: the smallest prime of the covolume
        grow = covol > 1
        q = min(_primes(covol.numerator if grow else covol.denominator,
                        known))
        if grow:
            # x != 0 mod q, so each overlattice has index exactly q
            for child in _grow_candidates(H, GA, GB, q):
                push(d * q, *child)
        else:
            for child in _sublattice_candidates(H, GA, GB, q):
                push(d, *child)
    raise NotFound("no integral representative within the search budget")


def _finish(p, d, H, GA, GB):
    """The integral pencil (GA, GB) of the covolume-1 lattice H/d, and
    g = (H/d)^-T, which carries p to it."""
    out = Pencil(p.n, tuple(tuple(row) for row in GA),
                 tuple(tuple(row) for row in GB))
    if invariant_form(out) != invariant_form(p):
        raise NotFound("search produced a pencil with the wrong form")
    det, adj = linalg.bareiss(linalg.transpose(H),
                              linalg.identity_matrix(len(H)))
    return IntegralizeResult(out, tuple(tuple(Fraction(d * x, det)
                                              for x in row) for row in adj))
