"""Lattice reduction of pencils, short vectors, and Siegel coordinates.

One integer Gram runs from the covariant to the shortest vector: H is
M 2^e with M an integer matrix.  LLL runs exactly on a rationalization of
it, the integer symmetric G over a power of two s that rounds M on the grid
2^-bits (relative to max |H_ij| when that is below 1); the unimodular
change of basis is exact integers, so reducing a pencil never perturbs it.
The rebased Gram U M U^T and v^T M v are exact integer products.
`lll_reduce` reduces in low precision and certifies in exact arithmetic
(Schnorr, J. Algorithms 1988; Nguyen-Stehle, SIAM J. Comput. 2009): a
coarse LLL on H at 64 bits finds the basis, and LLL on `exact_gram` of H
rebased into it (H rationalized at precision bits, at most 192) repeats
until it leaves the basis alone.  So the basis is LLL-reduced for
`exact_gram(gram_reduced)`, and that last pass ends in the `Lattice` every
other lattice answer reads: the basis U, G, s and the integral
Gram-Schmidt data (d, lam) of U G U^T, so det(G / s) = d_n / s^n.  The
last few lattices are kept, so a Gram is reduced once for its answers.
Short vectors come from Fincke-Pohst enumeration in integers on (d, lam).
Iwasawa coordinates follow the convention
H = (nu t)^-T (nu t)^-1 with nu unit upper triangular and t positive
diagonal of product 1 (H rescaled to det 1), read off as
t_i = d_n^(1/2n) sqrt(d_i / d_{i+1}) and nu = L^-T, with
L_ij = lam_ij / d_{j+1}.  So t_1 = det(H)^(1/2n) / |b_1|_H, and with a
shortest vector v first the cusp test t_1 > c^(n-1) / eps reads
|v|_H / det(H)^(1/2n) < eps / c^(n-1), the ratio of the eps-small test.
For v of norm N = v^T G v that ratio is (N^n / d_n)^(1/2n), s cancelling.
The ratio and t are exact rationals under a 2n-th or a square root, so
they are read off integer roots (`_root`) rounded down to precision + 36
bits and returned as exact dyadic mpf: the ratio within relative
2^-(precision + 35), each t_i within 2^-(precision + 33).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import mpmath as mp
from mpmath.libmp import from_rational, round_nearest

from . import linalg
from .covariant import GramMatrix, reduction_covariant
from .errors import DimensionTooLarge, PrecisionExhausted, RangeError
from .forms import DEFAULT_PRECISION
from .pencil import Pencil, UnimodularMatrix
from .roots import dyadic, man_exp, to_mpf

# Covering Siegel constant sqrt(3)/2; the cusp estimates need c < 1.
SIEGEL_C = 0.86602540378443864676
# The widest rationalization `exact_gram` makes.
_EXACT_BITS = 192
# Bits beyond the working precision of each integer root of the lattice
# scalars (`Lattice.ratio`, `Lattice.iwasawa_t`).
_BITS = 36


@dataclass(frozen=True)
class ReductionResult:
    g: UnimodularMatrix
    reduced: Pencil
    gram_reduced: GramMatrix
    det_g: int


@dataclass(frozen=True)
class IwasawaCoordinates:
    t: tuple                 # positive diagonal, det-1 normalized
    nu: tuple                # strictly upper unipotent entries, row-major
    satisfies_siegel: bool
    c: float


def _nearest(a, b):
    """a / b rounded to the nearest integer, ties to even, for b > 0."""
    q, r = divmod(a, b)
    return q + (2 * r > b or (2 * r == b and q & 1))


def _round_even(m, k):
    """m / 2^k rounded to the nearest integer, ties to even."""
    if k <= 0:
        return m << -k
    q, r, half = m >> k, m & ((1 << k) - 1), 1 << k - 1
    return q + (r > half or (r == half and q & 1))


def _iroot(x, k):
    """floor(x^(1/k)) for ints x >= 0 and k >= 1.

    Each factor 2 of k is an isqrt (floor(floor(y)^(1/b)) = floor(y^(1/b))
    for real y >= 0); an odd k > 1 runs integer Newton down from a float
    estimate above the root, which decreases strictly until it stops at it.
    """
    while k % 2 == 0:
        x, k = isqrt(x), k // 2
    if k == 1 or x < 2:
        return x
    # x < (top + 1) 2^(kq), with top below 2^64 so that it fits a float
    q = -(-max(0, x.bit_length() - 64) // k)
    y = int(float((x >> k * q) + 1) ** (1 / k) * (1 + 2.0 ** -40)) + 1 << q
    while (z := ((k - 1) * y + x // y ** (k - 1)) // k) < y:
        y = z
    return y


def _root(num, den, k, bits):
    """(m, e) with m = floor((num / den)^(1/k) 2^-e) for positive ints num
    and den.  e comes from the bit lengths so that m has at least `bits`
    bits, so m 2^e lies within relative 2^(1 - bits) below the root however
    large or small num / den is."""
    # num / den > 2^a, so m >= floor(2^(a/k - e)) >= 2^(bits - 1)
    a = num.bit_length() - den.bit_length() - 1
    e = a // k - bits + 1
    x = num // (den << k * e) if e > 0 else (num << -k * e) // den
    return _iroot(x, k), e


def rationalize_gram(H: GramMatrix, bits):
    """(G, s): G / s approximates (H + H^T) / 2 on the grid 1 / 2^bits, or
    2^t / 2^bits when every entry of (H + H^T) / 2 is below 2^t <= 1 in
    absolute value (a Gram of tiny scale keeps bits significant bits instead
    of rounding to 0).  G is an integer symmetric matrix and s = 2^bits with
    the power of two common to the grid points stripped, so s is the lcm of
    the denominators of G / s in lowest terms.

    Entry (i, j) is H_ij + H_ji rounded to bits + 64 significant bits, then
    halved and rounded to the grid, both half to even, in integers from M.
    """
    n, M, e = H.n, H.M, H.e
    # 2 (H + H^T) / 2 over 2^(1 - e)
    S = {(i, j): M[i][j] + M[j][i] for i in range(n) for j in range(i, n)}
    bits -= min(0, max((m.bit_length() + e - 1 for m in S.values() if m),
                       default=0))
    Q = {}
    for (i, j), m in S.items():
        k = max(0, m.bit_length() - bits - 64)
        Q[i, j] = _round_even(_round_even(m, k), 1 - e - k - bits)
    # the largest t <= bits with 2^t dividing every grid point
    t = min([bits] + [(q & -q).bit_length() - 1 for q in Q.values() if q])
    return linalg.symmetric([[Q[i, j] >> t for j in range(i, n)]
                            for i in range(n)]), 1 << bits - t


def _integral_gso(G):
    """Exact Gram-Schmidt data of a positive definite integer Gram.

    Returns (d, lam) as in Cohen, GTM 138, Alg. 2.6.7: d[i] is the leading
    i x i minor (d[0] = 1) and lam[i][j] = d[j+1] mu_ij for j < i, so that
    B*_i = d[i+1] / d[i].  Every division is exact.
    """
    n = len(G)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = G[i][j]
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            elif u <= 0:
                raise ValueError("Gram matrix is not positive definite")
            else:
                d[i + 1] = u
    return d, lam


@dataclass(frozen=True)
class Lattice:
    """The basis whose coordinates are the rows of U, under the exact Gram
    G / s, G an integer symmetric matrix and s a positive integer.

    (d, lam) is the integral Gram-Schmidt data of U G U^T (see
    `_integral_gso`).
    """
    U: list
    d: list
    lam: list
    s: int
    G: list

    @classmethod
    def standard(cls, G, s=1):
        """The standard basis of Z^n under G / s."""
        return cls(linalg.identity_matrix(len(G)), *_integral_gso(G), s, G)

    def shortest(self):
        """(v, N): the canonical shortest nonzero vector, in the coordinates
        of G, and its norm N = v^T G v."""
        U, G = self.U, self.G
        # the Gram of the basis U, which LLL often leaves at the identity
        Q = G if U == linalg.identity_matrix(len(U)) else linalg.gram(U, G)
        norm, minima = _enumerate_minima(self.d, self.lam, Q)
        Ut = linalg.transpose(U)
        return _canonical_minimizer(tuple(linalg.mat_vec(Ut, list(x)))
                                    for x in minima), norm

    def ratio(self, norm, precision):
        """|v| / det^(1/2n) under G / s for a vector v of norm N = v^T G v.

        s cancels, so the ratio is (N^n / d_n)^(1/2n), read off one integer
        root (`_root`) with a relative error below 2^-(precision + 35).
        """
        n = len(self.U)
        return dyadic(*_root(norm ** n, self.d[n], 2 * n, precision + _BITS))

    def iwasawa_t(self, precision=DEFAULT_PRECISION):
        """The diagonal t of `iwasawa`, t_i = d_n^(1/2n) sqrt(d_i / d_{i+1}),
        without nu: one integer root of d_n and an integer square root per i
        (`_root`), each of precision + 36 bits, their product truncated to
        precision + 36 bits, so the relative error of t_i is below
        2^-(precision + 33) however small d_i / d_{i+1} is."""
        d, n = self.d, len(self.U)
        bits = precision + _BITS
        r, w = _root(d[n], 1, 2 * n, bits)
        out = []
        for i in range(n):
            m, e = _root(d[i], d[i + 1], 2, bits)
            m *= r
            k = m.bit_length() - bits
            out.append(dyadic(m >> k, w + e + k))
        return tuple(out)

    def iwasawa(self, c=SIEGEL_C, precision=DEFAULT_PRECISION):
        """Iwasawa coordinates of this basis's Gram rescaled to det 1, as in
        the module docstring; L^-1 comes from exact forward substitution."""
        d, lam = self.d, self.lam
        n = len(self.U)
        Linv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i):
                Linv[i][j] = -sum(Fraction(lam[i][k], d[k + 1]) * Linv[k][j]
                                  for k in range(j, i))
        t = self.iwasawa_t(precision)
        with mp.workprec(precision + 32):
            nu = tuple(tuple(to_mpf(Linv[j][i]) for j in range(i + 1, n))
                       for i in range(n))
            ok = all(t[i] / t[i + 1] > c for i in range(n - 1))
        return IwasawaCoordinates(t, nu, bool(ok), float(c))


def lll_gram(G, s=1, delta=0.99) -> Lattice:
    """LLL on the positive definite Gram G / s, G an integer matrix.

    Returns the reduced `Lattice`: the rows of its U are the coordinates of
    the reduced basis, whose Gram is U G U^T / s.  Integral LLL (Cohen,
    GTM 138, Alg. 2.6.7): each row is fully size-reduced before its Lovasz
    test, and a swap updates the exact Gram-Schmidt data in O(n) integer
    steps.  U, d and lam are updated in place, so the returned record holds
    the Gram-Schmidt data of the basis LLL ends in.
    """
    if not 0.25 < delta < 1:
        raise ValueError("delta must lie in (0.25, 1)")
    num, den = delta.as_integer_ratio()
    n = len(G)
    lattice = Lattice.standard(G, s)
    U, d, lam = lattice.U, lattice.d, lattice.lam
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            # |mu_kj| <= 1/2 rounds (half-even) to 0
            if 2 * abs(lk[j]) <= d[j + 1]:
                continue
            q = _nearest(lk[j], d[j + 1])
            U[k] = [a - q * b for a, b in zip(U[k], U[j])]
            lj = lam[j]
            for t in range(j):
                lk[t] -= q * lj[t]
            lk[j] -= q * d[j + 1]
        lm = lk[k - 1]
        if den * (d[k + 1] * d[k - 1] + lm * lm) >= num * d[k] * d[k]:
            k += 1
            continue
        U[k], U[k - 1] = U[k - 1], U[k]
        lam[k][:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lam[k][:k - 1]
        b = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lm * t) // d[k]
            li[k - 1] = (b * t + lm * li[k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)
    return lattice


def lll_reduce(p: Pencil, delta=0.99, precision=DEFAULT_PRECISION,
               sl_normalize=False) -> ReductionResult:
    """Reduce a nondegenerate integral pencil via LLL on its covariant.

    The returned g satisfies reduced = act(g, p) exactly; gram_reduced is the
    covariant Gram H in the new basis.  A coarse LLL runs on H rationalized
    at 64 bits, doubled while that Gram is not positive definite, up to
    H's own grid of -H.e bits (or precision, if more), past which it raises
    PrecisionExhausted.  Then LLL runs on `exact_gram` of H rebased into
    that basis until it leaves the basis alone; its swaps and size
    reductions are composed into the basis.  So U = g^-T is
    (delta, 1/2)-LLL-reduced for `exact_gram(gram_reduced, precision)`, the
    Gram at min(precision, 192) bits that shortest_vector,
    epsilon_small_test and cusp_membership read, and with the default delta
    they reuse the lattice of that last pass.
    With sl_normalize the sign of the first basis vector is flipped if
    needed to force det(g) = +1 (this preserves LLL-reducedness).  A delta
    outside (0.25, 1) raises RangeError before any work; a degenerate
    pencil raises DegeneratePencil from reduction_covariant.
    """
    if not 0.25 < delta < 1:
        raise RangeError("delta must lie in (0.25, 1)")
    H = reduction_covariant(p, precision)
    # H is M 2^e: -H.e bits is its own grid
    bits, top = min(64, precision), max(precision, -H.e)
    while True:
        try:
            U = lll_gram(*rationalize_gram(H, bits), delta).U
            break
        except ValueError:          # not positive definite at this width
            if bits >= top:
                raise PrecisionExhausted(
                    "covariant Gram not positive definite at %d bits" % bits)
            bits = min(2 * bits, top)
    while True:
        gram = rebase_gram(H, U)
        V = _lattice(gram, precision, delta).U
        if V == linalg.identity_matrix(p.n):
            break
        U = linalg.mat_mul(V, U)
    if sl_normalize and linalg.bareiss(U)[0] == -1:
        U = [[-x for x in U[0]]] + [list(r) for r in U[1:]]
        gram = rebase_gram(H, U)
    g_entries = linalg.inverse_unimodular(linalg.transpose(U))
    g = UnimodularMatrix(p.n, tuple(tuple(r) for r in g_entries))
    # act(g, p) = (g^-T A g^-1, g^-T B g^-1) with g^-1 = U^T
    reduced = Pencil(p.n, linalg.gram(U, p.A), linalg.gram(U, p.B))
    return ReductionResult(g, reduced, gram, g.det)


def rebase_gram(H: GramMatrix, U) -> GramMatrix:
    """The Gram U H U^T of the basis whose coordinates are the rows of U.

    The product is exact, on M.  Each entry sums n^2 terms U_ia H_ab U_jb,
    so its error bound is H.error_bound * n^2 * max(1, max |U_ij|)^2.
    """
    n = H.n
    size = max(1, max(abs(x) for row in U for x in row))
    m, f = man_exp(H.error_bound)
    return GramMatrix(linalg.gram(U, H.M), H.e,
                      dyadic(m * n * n * size ** 2, f))


def exact_gram(H: GramMatrix, precision=DEFAULT_PRECISION):
    """(G, s): H rationalized at precision bits, at most 192, the exact Gram
    G / s behind shortest vectors, Iwasawa coordinates, the cusp test and
    the sampler."""
    return rationalize_gram(H, min(precision, _EXACT_BITS))


def _lattice(H: GramMatrix, precision, delta=0.99):
    """The `Lattice` LLL ends in on `exact_gram(H, precision)`; callers
    share it, so they read it and never change it."""
    return _lll_at(H, min(precision, _EXACT_BITS), delta)


@lru_cache(maxsize=8)
def _lll_at(H, bits, delta):
    """`_lattice` at a width, kept for the last few (H, bits, delta): the
    lattice of `lll_reduce`'s exact pass is the one that shortest_vector,
    epsilon_small_test and cusp_membership then read on its gram_reduced,
    and a Gram asked twice is reduced once.  The memo is bounded, so the
    lattices do not stay alive with the results that keep their Grams."""
    return lll_gram(*rationalize_gram(H, bits), delta)


def _enumerate_minima(d, lam, Q):
    """(N, minimizers): the minimum N of the positive definite integer form
    Q with integral Gram-Schmidt data (d, lam), and all nonzero x reaching
    it.

    Fincke-Pohst from the last coordinate down, in integers.  With
    y_i = d_{i+1} x_i + sum_{j>i} lam_ji x_j the form is the sum of the terms
    y_i^2 / (d_i d_{i+1}); a node's sum of the floors of its terms bounds
    every norm below it from below and prunes, and each leaf's norm x^T Q x
    is exact.  The radius starts at the smallest diagonal entry of Q and
    shrinks as better vectors appear.
    """
    n = len(Q)
    best = min(Q[i][i] for i in range(n))
    minima = []
    x = [0] * n

    def recurse(i, partial):
        nonlocal best, minima
        if i < 0:
            if any(x):
                norm = linalg.quad(Q, x)
                if norm < best:
                    best = norm
                    minima = [tuple(x)]
                elif norm == best:
                    minima.append(tuple(x))
            return
        di = d[i + 1]
        dd = d[i] * di
        c = sum(lam[j][i] * x[j] for j in range(i + 1, n))
        # the term is a parabola in xi centered at -c / di, so walk outward
        base = _nearest(-c, di)
        for xi, step in ((base, 1), (base - 1, -1)):
            y = di * xi + c
            while (term := y * y // dd) <= best - partial:
                x[i] = xi
                recurse(i - 1, partial + term)
                xi += step
                y += step * di
        x[i] = 0

    recurse(n - 1, 0)
    return best, minima


def _canonical_minimizer(vectors):
    """Sign-normalize (first nonzero positive) and pick the colex-least."""
    normed = set()
    for v in vectors:
        lead = next((x for x in v if x != 0), 0)
        if lead < 0:
            v = tuple(-x for x in v)
        normed.add(tuple(v))
    return min(normed, key=lambda v: tuple(reversed(v)))


def form_norm(H: GramMatrix, v, precision=DEFAULT_PRECISION):
    """v^T H v for a vector v of ints or Fractions: the exact v^T M v 2^e,
    rounded once to precision + 32 bits."""
    den, (w,) = linalg.clear_denominators([v])
    num = linalg.quad(H.M, w)
    return mp.make_mpf(from_rational(num << max(H.e, 0),
                                     den * den << max(-H.e, 0),
                                     precision + 32, round_nearest))


def shortest_vector(H: GramMatrix, precision=DEFAULT_PRECISION):
    """Exact shortest nonzero vector of Z^n under the form H (n <= 12).

    Enumeration runs on the LLL-reduced `exact_gram` of H; ties are broken
    by sign normalization followed by colexicographic order, so the result
    is deterministic.  Returns (v, norm) with the norm evaluated against H.
    """
    if H.n > 12:
        raise DimensionTooLarge("exact enumeration supports n <= 12")
    v, _ = _lattice(H, precision).shortest()
    return v, form_norm(H, v, precision)


def epsilon_small_test(H: GramMatrix, eps, precision=DEFAULT_PRECISION) -> bool:
    """True iff the shortest vector satisfies (v,v)^(1/2) < eps*det(H)^(1/2n)."""
    if H.n > 12:
        raise DimensionTooLarge("exact enumeration supports n <= 12")
    lattice = _lattice(H, precision)
    return bool(lattice.ratio(lattice.shortest()[1], precision) < mp.mpf(eps))


def iwasawa_coordinates(H: GramMatrix, c=SIEGEL_C,
                        precision=DEFAULT_PRECISION) -> IwasawaCoordinates:
    """Iwasawa coordinates of the det-1 rescaling of H in the standard basis:
    H1 = (nu * t)^-T (nu * t)^-1, nu unit upper triangular, t positive
    diagonal with product 1."""
    return Lattice.standard(*exact_gram(H, precision)).iwasawa(c, precision)


def cusp_membership(H: GramMatrix, eps, c=SIEGEL_C,
                    precision=DEFAULT_PRECISION) -> bool:
    """True iff t_1 of the reduced representative exceeds c^(n-1)/eps.

    The reduced representative starts with an exact shortest vector v (the
    first LLL vector beyond n = 12), and t_1 = det(H)^(1/2n) / |v|_H; with
    c < 1 this makes the small-vector implication of the cusp estimate hold
    verbatim.
    """
    n = H.n
    lattice = _lattice(H, precision)
    norm = lattice.shortest()[1] if n <= 12 else lattice.d[1]
    with mp.workprec(precision + 32):
        threshold = mp.mpf(eps) / mp.mpf(c) ** (n - 1)
        return bool(lattice.ratio(norm, precision) < threshold)


def stabilizer_order(m: int, n: int) -> int:
    """Order of the real stabilizer on the component with 2m real roots."""
    if n <= 0 or n % 2:
        raise RangeError("n must be a positive even integer")
    if not 0 <= m <= n // 2:
        raise RangeError("m must satisfy 0 <= m <= n/2")
    if m == 0:
        return 2 ** (n // 2)
    return 2 ** (n // 2 + m - 1)
