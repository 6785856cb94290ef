"""Lattice reduction of pencils, short vectors, and Siegel coordinates.

LLL runs exactly on a dyadic rationalization of the covariant Gram matrix;
the unimodular change of basis is exact integers, so reducing a pencil never
perturbs it.  Nothing between the covariant and LLL is floating point: the
rationalization rounds each entry from its mantissa and exponent in
integers, on the grid 2^-bits (relative to max |H_ij| when that is below
1), and the rebased Gram U H U^T is an exact integer product at the common
exponent of the entries of H.  Every other lattice answer reads one
`Lattice`, the state LLL ends in on `exact_gram(H)` (H rationalized at
precision bits, at most 192): the basis U, the lcm s of the denominators of
that Gram and the integral Gram-Schmidt data (d, lam) of s U G U^T, so
det G = d_n / s^n.  Short vectors come from exact Fincke-Pohst enumeration
on (d, lam).  Iwasawa coordinates follow the convention
H = (nu t)^-T (nu t)^-1 with nu unit upper triangular and t positive
diagonal of product 1 (H rescaled to det 1), read off as
t_i = d_n^(1/2n) sqrt(d_i / d_{i+1}) and nu = L^-T, with
L_ij = lam_ij / d_{j+1}.  So t_1 = det(H)^(1/2n) / |b_1|_H, and with a
shortest vector v first the cusp test t_1 > c^(n-1) / eps reads
|v|_H / det(H)^(1/2n) < eps / c^(n-1), the ratio of the eps-small test.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

import mpmath as mp

from . import linalg
from .covariant import GramMatrix, reduction_covariant
from .errors import DimensionTooLarge, RangeError
from .forms import DEFAULT_PRECISION
from .pencil import Pencil, UnimodularMatrix, act
from .roots import dyadic, man_exp, to_mpf

# Covering Siegel constant sqrt(3)/2; the cusp estimates need c < 1.
SIEGEL_C = 0.86602540378443864676


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


def _round_even(m, k):
    """m / 2^k rounded to the nearest integer, ties to even."""
    if k <= 0:
        return m << -k
    q, r = divmod(m, 1 << k)
    half = 1 << (k - 1)
    return q + (r > half or (r == half and q & 1))


def rationalize_gram(H: GramMatrix, bits):
    """Symmetric Fraction approximation with denominators 2^bits, or
    2^bits / 2^t when every entry of (H + H^T) / 2 is below 2^t <= 1 in
    absolute value (a Gram of tiny scale keeps bits significant bits instead
    of rounding to 0).

    Entry (i, j) is H_ij + H_ji rounded to bits + 64 significant bits, then
    halved and rounded to the grid, both half to even, in integers from the
    mantissas of H.
    """
    n = H.n
    M, e = H.mantissas()
    # 2 (H + H^T) / 2 over 2^(1 - e)
    S = {(i, j): M[i][j] + M[j][i] for i in range(n) for j in range(i, n)}
    bits -= min(0, max((m.bit_length() + e - 1 for m in S.values() if m),
                       default=0))
    den = 1 << bits
    out = [[None] * n for _ in range(n)]
    for (i, j), m in S.items():
        k = max(0, m.bit_length() - bits - 64)
        q = _round_even(_round_even(m, k), 1 - e - k - bits)
        out[i][j] = out[j][i] = Fraction(q, den)
    return out


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
    """The basis whose coordinates are the rows of U, under an exact Gram G.

    s is the lcm of the denominators of G, and (d, lam) is the integral
    Gram-Schmidt data of s U G U^T (see `_integral_gso`).
    """
    U: list
    d: list
    lam: list
    s: int

    @classmethod
    def standard(cls, G):
        """The standard basis of Z^n under G."""
        G = [[Fraction(x) for x in row] for row in G]
        s = lcm(*(x.denominator for row in G for x in row))
        Gs = [[x.numerator * (s // x.denominator) for x in row] for row in G]
        return cls(linalg.identity_matrix(len(G)), *_integral_gso(Gs), s)

    @property
    def det(self):
        """det G, exactly: d_n / s^n."""
        return Fraction(self.d[-1], self.s ** len(self.U))

    def shortest(self):
        """(v, N): the canonical shortest nonzero vector, in the coordinates
        of G, and its norm N = s v^T G v."""
        norm, minima = _enumerate_minima(self.d, self.lam)
        Ut = linalg.transpose(self.U)
        return _canonical_minimizer(tuple(linalg.mat_vec(Ut, list(x)))
                                    for x in minima), norm

    def ratio(self, norm, precision):
        """|v|_G / det(G)^(1/2n) for a vector v of norm N = s v^T G v."""
        with mp.workprec(precision + 32):
            return det_ratio(to_mpf(Fraction(norm, self.s)), to_mpf(self.det),
                             len(self.U))

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
        with mp.workprec(precision + 32):
            root = to_mpf(d[n]) ** (mp.mpf(1) / (2 * n))
            t = tuple(root * mp.sqrt(to_mpf(Fraction(d[i], d[i + 1])))
                      for i in range(n))
            nu = tuple(tuple(to_mpf(Linv[j][i]) for j in range(i + 1, n))
                       for i in range(n))
            ok = all(t[i] / t[i + 1] > c for i in range(n - 1))
        return IwasawaCoordinates(t, nu, bool(ok), float(c))


def lll_gram(G, delta=0.99) -> Lattice:
    """LLL on a positive definite rational Gram matrix.

    Returns the reduced `Lattice`: the rows of its U are the coordinates of
    the reduced basis, whose Gram is U G U^T.  Integral LLL (Cohen, GTM 138,
    Alg. 2.6.7) on G scaled to integers: each row is fully size-reduced
    before its Lovasz test, and a swap updates the exact Gram-Schmidt data
    in O(n) integer steps.  U, d and lam are updated in place, so the
    returned record holds the Gram-Schmidt data of the basis LLL ends in.
    """
    if not 0.25 < delta < 1:
        raise ValueError("delta must lie in (0.25, 1)")
    delta = Fraction(delta)
    n = len(G)
    lattice = Lattice.standard(G)
    U, d, lam = lattice.U, lattice.d, lattice.lam
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            # |mu_kj| <= 1/2 rounds (half-even) to 0
            if 2 * abs(lk[j]) <= d[j + 1]:
                continue
            q = round(Fraction(lk[j], d[j + 1]))
            U[k] = [a - q * b for a, b in zip(U[k], U[j])]
            lj = lam[j]
            for t in range(j):
                lk[t] -= q * lj[t]
            lk[j] -= q * d[j + 1]
        lm = lk[k - 1]
        if (delta.denominator * (d[k + 1] * d[k - 1] + lm * lm)
                >= delta.numerator * d[k] * d[k]):
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
    covariant Gram in the new basis, LLL-reduced by construction.  With
    sl_normalize the sign of the first basis vector is flipped if needed to
    force det(g) = +1 (this preserves LLL-reducedness).  A degenerate pencil
    raises DegeneratePencil from reduction_covariant.
    """
    H = reduction_covariant(p, precision)
    U = lll_gram(rationalize_gram(H, precision), delta).U
    if sl_normalize and linalg.det_bareiss(U) == -1:
        U = [[-x for x in U[0]]] + [list(r) for r in U[1:]]
    g_entries = linalg.inverse_unimodular(linalg.transpose(U))
    g = UnimodularMatrix(p.n, tuple(tuple(r) for r in g_entries))
    reduced = act(g, p)
    return ReductionResult(g, reduced, rebase_gram(H, U), g.det)


def rebase_gram(H: GramMatrix, U) -> GramMatrix:
    """The Gram U H U^T of the basis whose coordinates are the rows of U.

    The product is exact, on the integer mantissas of H.  Each entry sums
    n^2 terms U_ia H_ab U_jb, so its error bound is
    H.error_bound * n^2 * max(1, max |U_ij|)^2.  The upper triangle is
    computed and mirrored: the result is exactly symmetric and holds
    n(n+1)/2 distinct entries.
    """
    n = H.n
    M, e = H.mantissas()
    UM = [[sum(map(mul, u, col)) for col in zip(*M)] for u in U]
    upper = [[sum(map(mul, UM[i], U[j])) for j in range(i, n)]
             for i in range(n)]
    size = max(1, max(abs(x) for row in U for x in row))
    m, f = man_exp(H.error_bound)
    return GramMatrix.from_ints(upper, e, dyadic(m * n * n * size ** 2, f))


def exact_gram(H: GramMatrix, precision=DEFAULT_PRECISION):
    """H rationalized at precision bits, at most 192: the exact Gram behind
    shortest vectors, Iwasawa coordinates, the cusp test and the sampler."""
    return rationalize_gram(H, min(precision, 192))


def _enumerate_minima(d, lam):
    """(N, minimizers): the minimum N of the positive definite integer form
    with integral Gram-Schmidt data (d, lam), and all nonzero x reaching it.

    Fincke-Pohst from the last coordinate down, with rational arithmetic
    only; the LDL^T is L_ij = lam_ij / d_{j+1} and D_i = d_{i+1} / d_i, so
    each partial sum is an exact norm.  The radius starts at the smallest
    diagonal entry of the form and shrinks as better vectors appear.
    """
    n = len(lam)
    L = [[Fraction(lam[i][j], d[j + 1]) for j in range(i)] for i in range(n)]
    D = [Fraction(d[i + 1], d[i]) for i in range(n)]
    best = min(D[i] + sum(D[j] * L[i][j] ** 2 for j in range(i))
               for i in range(n))
    minima = []

    x = [0] * n

    def recurse(i, partial):
        nonlocal best, minima
        if i < 0:
            if any(x):
                if partial < best:
                    best = partial
                    minima = [tuple(x)]
                elif partial == best:
                    minima.append(tuple(x))
            return
        c = sum(L[j][i] * x[j] for j in range(i + 1, n))
        budget = best - partial
        if budget < 0:
            return
        base = round(-c)
        # the term is a parabola in xi centered at -c, so walk outward
        for xi, step in ((base, 1), (base - 1, -1)):
            term = D[i] * (xi + c) ** 2
            while term <= budget:
                x[i] = xi
                recurse(i - 1, partial + term)
                xi += step
                term = D[i] * (xi + c) ** 2
        x[i] = 0

    recurse(n - 1, Fraction(0))
    return int(best), minima


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
    """v^T H v for a vector v of ints or Fractions."""
    with mp.workprec(precision + 32):
        vec = mp.matrix([to_mpf(x) for x in v])
        return (vec.T * H.as_mp() * vec)[0, 0]


def det_ratio(norm, det, n):
    """|v|_H / det(H)^(1/2n) for norm = v^T H v and det = det(H): invariant
    under scaling H and under a change of basis."""
    return mp.sqrt(norm) / det ** (mp.mpf(1) / (2 * n))


def shortest_vector(H: GramMatrix, precision=DEFAULT_PRECISION):
    """Exact shortest nonzero vector of Z^n under the form H (n <= 12).

    Enumeration runs on the LLL-reduced `exact_gram` of H; ties are broken
    by sign normalization followed by colexicographic order, so the result
    is deterministic.  Returns (v, norm) with the norm evaluated against H.
    """
    if H.n > 12:
        raise DimensionTooLarge("exact enumeration supports n <= 12")
    v, _ = lll_gram(exact_gram(H, precision)).shortest()
    return v, form_norm(H, v, precision)


def epsilon_small_test(H: GramMatrix, eps, precision=DEFAULT_PRECISION) -> bool:
    """True iff the shortest vector satisfies (v,v)^(1/2) < eps*det(H)^(1/2n)."""
    if H.n > 12:
        raise DimensionTooLarge("exact enumeration supports n <= 12")
    lattice = lll_gram(exact_gram(H, precision))
    return bool(lattice.ratio(lattice.shortest()[1], precision) < mp.mpf(eps))


def iwasawa_coordinates(H: GramMatrix, c=SIEGEL_C,
                        precision=DEFAULT_PRECISION) -> IwasawaCoordinates:
    """Iwasawa coordinates of the det-1 rescaling of H in the standard basis:
    H1 = (nu * t)^-T (nu * t)^-1, nu unit upper triangular, t positive
    diagonal with product 1."""
    return Lattice.standard(exact_gram(H, precision)).iwasawa(c, precision)


def cusp_membership(H: GramMatrix, eps, c=SIEGEL_C,
                    precision=DEFAULT_PRECISION) -> bool:
    """True iff t_1 of the reduced representative exceeds c^(n-1)/eps.

    The reduced representative starts with an exact shortest vector v (the
    first LLL vector beyond n = 12), and t_1 = det(H)^(1/2n) / |v|_H; with
    c < 1 this makes the small-vector implication of the cusp estimate hold
    verbatim.
    """
    n = H.n
    lattice = lll_gram(exact_gram(H, precision))
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
