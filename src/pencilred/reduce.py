"""Lattice reduction of pencils, short vectors, and Siegel coordinates.

LLL runs exactly on a dyadic rationalization of the covariant Gram matrix;
the unimodular change of basis is exact integers, so reducing a pencil never
perturbs it.  Short vectors come from exact Fincke-Pohst enumeration on the
rational Gram.  Iwasawa coordinates follow the convention H = (nt)^-T (nt)^-1
with n unit upper triangular and t the positive diagonal, which is the one
that makes a short lattice vector force t_1 large (the cusp test).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import mpmath as mp

from . import linalg
from .covariant import GramMatrix, reduction_covariant
from .errors import DegeneratePencil, DimensionTooLarge, RangeError
from .forms import DEFAULT_PRECISION
from .pencil import Pencil, UnimodularMatrix, act, pencil_discriminant

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


def rationalize_gram(H: GramMatrix, bits):
    """Symmetric Fraction approximation with denominators 2^bits."""
    n = H.n
    den = 1 << bits
    out = [[Fraction(0)] * n for _ in range(n)]
    with mp.workprec(bits + 64):
        for i in range(n):
            for j in range(i, n):
                x = (H.entries[i][j] + H.entries[j][i]) / 2
                q = Fraction(int(mp.nint(x * den)), den)
                out[i][j] = out[j][i] = q
    return out


def _integral_gram(G):
    """G scaled by the lcm of its denominators, as Python ints."""
    G = [[Fraction(x) for x in row] for row in G]
    s = lcm(*(x.denominator for row in G for x in row))
    return [[x.numerator * (s // x.denominator) for x in row] for row in G]


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


def lll_gram(G, delta=0.99):
    """LLL on a positive definite rational Gram matrix.

    Returns an integer unimodular matrix U whose rows are the coordinates of
    the reduced basis; the reduced Gram is U G U^T.  Integral LLL (Cohen,
    GTM 138, Alg. 2.6.7) on G scaled to integers: each row is fully
    size-reduced before its Lovasz test, and a swap updates the exact
    Gram-Schmidt data in O(n) integer steps.
    """
    if not 0.25 < delta < 1:
        raise ValueError("delta must lie in (0.25, 1)")
    delta = Fraction(delta)
    n = len(G)
    d, lam = _integral_gso(_integral_gram(G))
    U = linalg.identity_matrix(n)
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
    return U


def is_lll_reduced_gram(G, delta=0.99):
    """Exact check of size reduction and the Lovasz condition on a Gram."""
    d, lam = _integral_gso(_integral_gram(G))
    delta = Fraction(delta)
    for k in range(1, len(G)):
        if any(2 * abs(lam[k][j]) > d[j + 1] for j in range(k)):
            return False
        lm = lam[k][k - 1]
        if (delta.denominator * (d[k + 1] * d[k - 1] + lm * lm)
                < delta.numerator * d[k] * d[k]):
            return False
    return True


def lll_reduce(p: Pencil, delta=0.99, precision=DEFAULT_PRECISION,
               sl_normalize=False) -> ReductionResult:
    """Reduce a nondegenerate integral pencil via LLL on its covariant.

    The returned g satisfies reduced = act(g, p) exactly; gram_reduced is the
    covariant Gram in the new basis, LLL-reduced by construction.  With
    sl_normalize the sign of the first basis vector is flipped if needed to
    force det(g) = +1 (this preserves LLL-reducedness).
    """
    if pencil_discriminant(p) == 0:
        raise DegeneratePencil("pencil has zero discriminant")
    H = reduction_covariant(p, precision)
    G = rationalize_gram(H, precision)
    U = lll_gram(G, delta)
    if sl_normalize and linalg.det_bareiss(U) == -1:
        U = [[-x for x in U[0]]] + [list(r) for r in U[1:]]
    g_entries = linalg.inverse_unimodular(linalg.transpose(U))
    g = UnimodularMatrix(p.n, tuple(tuple(r) for r in g_entries))
    reduced = act(g, p)
    return ReductionResult(g, reduced, rebase_gram(H, U, precision), g.det)


def rebase_gram(H: GramMatrix, U, precision=DEFAULT_PRECISION) -> GramMatrix:
    """The Gram U H U^T of the basis whose coordinates are the rows of U.

    Each entry sums n^2 terms U_ia H_ab U_jb, so its error bound is
    H.error_bound * n^2 * max(1, max |U_ij|)^2.
    """
    n = H.n
    with mp.workprec(precision + 32):
        Um = mp.matrix([list(r) for r in U])
        Hr = Um * H.as_mp() * Um.T
        size = max(1, max(abs(x) for row in U for x in row))
        return GramMatrix.from_mp(Hr, H.error_bound * n * n * size ** 2)


def _enumerate_minima(G):
    """All nonzero minimizers of the exact rational form G.

    Fincke-Pohst from the last coordinate down on G scaled to integers, with
    rational arithmetic only; the LDL^T comes from the integral Gram-Schmidt
    data as L_ij = lam_ij / d_{j+1} and D_i = d_{i+1} / d_i.  The radius
    starts at the smallest diagonal entry and shrinks as better vectors
    appear.
    """
    G = _integral_gram(G)
    n = len(G)
    d, lam = _integral_gso(G)
    L = [[Fraction(lam[i][j], d[j + 1]) for j in range(i)] for i in range(n)]
    D = [Fraction(d[i + 1], d[i]) for i in range(n)]
    best = min(G[i][i] for i in range(n))
    minima = []

    x = [0] * n

    def norm_of(vec):
        return sum(G[i][j] * vec[i] * vec[j]
                   for i in range(n) for j in range(n))

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
        xi = base
        while True:
            term = D[i] * (xi + c) ** 2
            if term > budget:
                break
            x[i] = xi
            recurse(i - 1, partial + term)
            x[i] = 0
            xi += 1
        xi = base - 1
        while True:
            term = D[i] * (xi + c) ** 2
            if term > budget:
                break
            x[i] = xi
            recurse(i - 1, partial + term)
            x[i] = 0
            xi -= 1

    recurse(n - 1, Fraction(0))
    # best may have shrunk after a tied vector was recorded
    return [v for v in minima if norm_of(v) == best]


def _canonical_minimizer(vectors):
    """Sign-normalize (first nonzero positive) and pick the colex-least."""
    normed = set()
    for v in vectors:
        lead = next((x for x in v if x != 0), 0)
        if lead < 0:
            v = tuple(-x for x in v)
        normed.add(tuple(v))
    return min(normed, key=lambda v: tuple(reversed(v)))


def shortest_vector(H: GramMatrix, precision=DEFAULT_PRECISION):
    """Exact shortest nonzero vector of Z^n under the form H (n <= 12).

    Enumeration runs on the dyadic rationalization of H; ties are broken by
    sign normalization followed by colexicographic order, so the result is
    deterministic.  Returns (v, norm) with the norm evaluated against H.
    """
    if H.n > 12:
        raise DimensionTooLarge("exact enumeration supports n <= 12")
    bits = min(precision, 192)
    G = rationalize_gram(H, bits)
    U = lll_gram(G)
    Gr = linalg.mat_mul(U, linalg.mat_mul(G, linalg.transpose(U)))
    minima = _enumerate_minima(Gr)
    candidates = [tuple(linalg.mat_vec(linalg.transpose(U), list(xv)))
                  for xv in minima]
    v = _canonical_minimizer(candidates)
    with mp.workprec(precision + 32):
        Hm = H.as_mp()
        vec = mp.matrix(list(v))
        norm = (vec.T * Hm * vec)[0, 0]
    return v, norm


def epsilon_small_test(H: GramMatrix, eps, precision=DEFAULT_PRECISION) -> bool:
    """True iff the shortest vector satisfies (v,v)^(1/2) < eps*det(H)^(1/2n)."""
    v, norm = shortest_vector(H, precision)
    with mp.workprec(precision + 32):
        d = mp.det(H.as_mp())
        return bool(mp.sqrt(norm) < mp.mpf(eps) * d ** (mp.mpf(1) / (2 * H.n)))


def _ldl_mp(M, n):
    L = mp.eye(n)
    D = [mp.mpf(0)] * n
    for j in range(n):
        d = M[j, j] - mp.fsum(L[j, k] ** 2 * D[k] for k in range(j))
        D[j] = d
        for i in range(j + 1, n):
            L[i, j] = (M[i, j] - mp.fsum(
                L[i, k] * L[j, k] * D[k] for k in range(j))) / d
    return L, D


def iwasawa_coordinates(H: GramMatrix, c=SIEGEL_C,
                        precision=DEFAULT_PRECISION) -> IwasawaCoordinates:
    """Iwasawa coordinates of the det-1 rescaling of H.

    Writes H1 = (nu * t)^-T (nu * t)^-1 with nu unit upper triangular and t
    positive diagonal with product 1; equivalently H1^-1 = nu t^2 nu^T, a
    UDU^T factorization, computed as an order-reversed LDL^T.
    """
    n = H.n
    with mp.workprec(precision + 32):
        Hm = H.as_mp()
        d = mp.det(Hm)
        H1 = Hm / d ** (mp.mpf(1) / n)
        C = H1 ** -1
        Cf = mp.matrix(n)
        for i in range(n):
            for j in range(n):
                Cf[i, j] = C[n - 1 - i, n - 1 - j]
        L, D = _ldl_mp(Cf, n)
        t = tuple(mp.sqrt(D[n - 1 - i]) for i in range(n))
        nu = tuple(tuple(L[n - 1 - i, n - 1 - j] for j in range(i + 1, n))
                   for i in range(n))
        ok = all(t[i] / t[i + 1] > c for i in range(n - 1))
    return IwasawaCoordinates(t, nu, bool(ok), float(c))


def cusp_membership(H: GramMatrix, eps, c=SIEGEL_C,
                    precision=DEFAULT_PRECISION) -> bool:
    """True iff t_1 of the reduced representative exceeds c^(n-1)/eps.

    The lattice is first rebased so the exact shortest vector comes first
    (falling back to plain LLL beyond n = 12); with c < 1 this makes the
    small-vector implication of the cusp estimate hold verbatim.
    """
    n = H.n
    if n <= 12:
        v, _ = shortest_vector(H, precision)
        g = 0
        for xx in v:
            g = gcd(g, xx)
        v = tuple(xx // g for xx in v)
        W = linalg.complete_primitive_vector(list(v))
    else:
        G = rationalize_gram(H, min(precision, 192))
        W = lll_gram(G)
    iw = iwasawa_coordinates(rebase_gram(H, W, precision), c, precision)
    with mp.workprec(precision + 32):
        threshold = mp.mpf(c) ** (n - 1) / mp.mpf(eps)
        return bool(iw.t[0] > threshold)


def stabilizer_order(m: int, n: int) -> int:
    """Order of the real stabilizer on the component with 2m real roots."""
    if n <= 0 or n % 2:
        raise RangeError("n must be a positive even integer")
    if not 0 <= m <= n // 2:
        raise RangeError("m must satisfy 0 <= m <= n/2")
    if m == 0:
        return 2 ** (n // 2)
    return 2 ** (n // 2 + m - 1)
