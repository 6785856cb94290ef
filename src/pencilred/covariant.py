"""The reduction covariant H_{A,B}.

Simultaneous diagonalization of a nondegenerate pencil over C, followed by
the entrywise-maximum construction: in a basis b_1..b_n diagonalizing both
forms, (b_i, b_i)_H = max(|(b_i,b_i)_A|, |(b_i,b_i)_B|) and off-diagonals
vanish.  H is real, positive definite, independent of the basis scaling, and
transforms like the pencil under the unimodular action.

The basis is kept real, as LAPACK's dgeev keeps eigenvectors: a real root
gives one unit column of R, a conjugate pair v, conj(v) = p +- iq the two
columns p and q.  Every d_i = v_i^T M v_i and residual v_i^T M v_j is exact
in the integer Grams G = R^T M R, M = A, B: d = G_rr at a real column r and
G_pp - G_qq +- 2i G_pq at a pair; |v_i^T M v_j|^2 is G_rs^2 between real
columns, G_rp^2 + G_rq^2 between r and a pair, (G_pp + G_qq)^2 within a pair
and (G_pr -+ G_qt)^2 + (G_pt +- G_qr)^2 between the pairs (p, q), (r, t).

With P = [v_1 .. v_n], row i of P^-1 is (M v_i)^T / d_i, so H = P^-H diag
P^-1 = sum_i diag_i / |d_i|^2 conj(w_i) w_i^T, w_i = M_i v_i, M_i whichever
of A, B gives the larger |d_i|.  A pair's two terms add up to
2 diag / |d|^2 (w_p w_p^T + w_q w_q^T), so H is the real rank-one sum
sum_j t_j w_j w_j^T over the columns w_j of M_j R, with no inverse.

All of it runs on Python ints at one fixed point 2^s, s = precision + 2n +
32: the roots are exact dyadics, a column is the integer column pencil
adj(x·aA - y·aB)·w at its root (once per real root or pair; adj M = κ·v vᵀ
at a simple root, so adj(M)·w = κ(vᵀw)·v), or the whole adjugate pencil's
column of largest norm where that does not certify and has cancelled more
than half of the width, normalized by an integer square root, and M R and
G are exact products with the integral pencil (aA, aB), a the common
denominator of (A, B).  The certificate compares squared magnitudes on
the scale of (A, B); H of (aA, aB), a H, is divided by a at the end.
"""

from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from operator import mul

import mpmath as mp
from mpmath.libmp import from_man_exp

from .errors import (DegeneratePencil, PrecisionExhausted, SingularVariant)
from .forms import (DEFAULT_PRECISION, BinaryForm, complex_roots,
                    discriminant, mahler_measure_with_error)
from .linalg import bareiss, gram_of_product, identity_matrix, mat_vec
from .pencil import Pencil, adjugate_pencil, integral, invariant_form
from .roots import dyadic, man_exp

_MAX_ESCALATIONS = 4


@dataclass(frozen=True)
class GramMatrix:
    """A real n x n Gram matrix M 2^e, M an integer matrix (symmetric for
    every Gram the library makes), with an entrywise absolute error estimate
    `error_bound` (an mpf).

    `entries` is the n x n mpf view of M 2^e, made on first use for JSON
    output; every lattice answer reads M and e.
    """
    M: tuple
    e: int
    error_bound: object

    @property
    def n(self):
        return len(self.M)

    @cached_property
    def entries(self):
        return tuple(tuple(dyadic(x, self.e) for x in row) for row in self.M)

    def to_json_dict(self, digits=30):
        return {"n": self.n,
                "entries": [[mp.nstr(x, digits) for x in row]
                            for row in self.entries],
                "error_bound": mp.nstr(self.error_bound, 8)}


@dataclass(frozen=True)
class DiagonalizingBasis:
    """A common diagonalizing basis in fixed point, on real columns: R
    (int columns over 2^s), `blocks` ((r, None) per real root and (p, q) per
    pair p +- iq, in root order), MR = ((aA)R, (aB)R) over 2^s and
    G = (R^T (aA) R, R^T (aB) R) over 2^(2s).  `columns`, `dA` and `dB` are
    the complex columns and (b_i, b_i)_A, (b_i, b_i)_B of (A, B) in mpmath:
    mpf where the imaginary part is 0, else mpc."""
    n: int
    s: int
    a: int
    blocks: tuple
    R: tuple
    MR: tuple
    G: tuple

    @cached_property
    def columns(self):
        out = []
        for p, q in self.blocks:
            im = [0] * self.n if q is None else self.R[q]
            for c in (1,) if q is None else (1, -1):
                out.append(tuple(_mp(x, c * y, -self.s)
                                 for x, y in zip(self.R[p], im)))
        return tuple(out)

    @cached_property
    def dA(self):
        return self._scalars(_diagonal(self.G[0], self.blocks))

    @cached_property
    def dB(self):
        return self._scalars(_diagonal(self.G[1], self.blocks))

    def _scalars(self, zs):
        with mp.workprec(2 * self.s):
            return tuple(_mp(x, y, -2 * self.s) / self.a for x, y in zs)


def _mp(x, y, e):
    """(x + iy)·2^e, exactly at any working precision: an mpf when y = 0,
    else an mpc."""
    return (mp.make_mpc((from_man_exp(x, e), from_man_exp(y, e))) if y
            else dyadic(x, e))


def _abs2(z):
    return z[0] * z[0] + z[1] * z[1]


def _diagonal(G, blocks):
    """The d_i as Gaussian integers (re, im), read off G."""
    d = []
    for p, q in blocks:
        if q is None:
            d.append((G[p][p], 0))
        else:
            x, y = G[p][p] - G[q][q], 2 * G[p][q]
            d += [(x, y), (x, -y)]
    return d


def _off_diagonal(G, blocks):
    """The |v_i^T M v_j|^2, i < j, read off G, a missing q as a zero column:
    |v^T M u|^2, and |v^T M conj(u)|^2 when both blocks are pairs."""
    for k, (p, q) in enumerate(blocks):
        if q is not None:
            yield (G[p][p] + G[q][q]) ** 2
        for r, t in blocks[k + 1:]:
            x, y, u, w = (0 if i is None or j is None else G[i][j]
                          for i, j in ((p, r), (p, t), (q, r), (q, t)))
            yield (x - w) ** 2 + (y + u) ** 2
            if q is not None and t is not None:
                yield (x + w) ** 2 + (y - u) ** 2


def _moduli(db):
    """(|dA_i|^2, |dB_i|^2) per column, on the scale of db."""
    return list(zip(*(map(_abs2, _diagonal(G, db.blocks)) for G in db.G)))


def _limit(n, one, scale2, precision):
    """(lim, e) such that a magnitude x is at most the tolerance
    tol = n 2^(-precision/2) max(scale, 1) iff x^2 << e <= lim, for x, the
    squared scale scale2 and the unit `one` in the same integer units."""
    return n * n * max(scale2, one * one), 2 * -(-precision // 2)


def _fixed(z, s):
    """The root z (mpc; None at infinity) as Gaussian integers z·2^s."""
    if z is None:
        return None
    return tuple(m << e + s if e + s >= 0 else m >> -(e + s)
                 for m, e in map(man_exp, (z.real, z.imag)))


def _powers(z, n, s):
    """x0^k y0^(n-1-k), k = 0..n-1, over 2^s at the root (x0 : y0) =
    (z : 1), or (1 : 0) for z None, with max(|x0|, |y0|) = 1: the powers of
    z, or of 1/z in reverse when |z| > 1.  (re, im) lists."""
    one = 1 << s
    if z is None:
        return [0] * (n - 1) + [one], [0] * n
    x, y = z
    m = x * x + y * y
    inverse = m > one * one
    if inverse:                         # 1/z = conj(z) / |z|^2
        x, y = (x << 2 * s) // m, (-y << 2 * s) // m
    tr, ti = [one], [0]
    for _ in range(n - 1):
        r, i = tr[-1], ti[-1]
        tr.append((r * x - i * y) >> s)
        ti.append((r * y + i * x) >> s)
    return (tr[::-1], ti[::-1]) if inverse else (tr, ti)


def _adjugate_column(C, z, s):
    """(re, im, norm2): the unit null vector of M = x0·A - y0·B at the root
    (x0 : y0) of `_powers`, and the squared norm of the column it was read
    off; z, the vector and the column are Gaussian integers over 2^s.

    M is symmetric of corank 1, so adj M = κ·v vᵀ and each column of
    adj(M)·W is κ(vᵀw)·v, w the matching column of W; the column of largest
    norm is taken.  C[j][i] lists the coefficients of x^k y^(n-1-k) in
    entry (i, j) of adj(x·A - y·B)·W, of a positive multiple of (A, B),
    which scales adj M alone.
    """
    n = len(C[0])
    tr, ti = _powers(z, n, s)

    def at(c):
        re = [sum(map(mul, e, tr)) for e in c]
        im = [sum(map(mul, e, ti)) for e in c]
        return sum(u * u for u in re) + sum(u * u for u in im), re, im

    norm2, re, im = max(map(at, C), key=lambda col: col[0])
    norm = max(isqrt(norm2), 1)
    return ([(u << s) // norm for u in re], [(u << s) // norm for u in im],
            norm2)


def _basis(pencil, D, roots, s):
    """(db, cancelled): the DiagonalizingBasis at 2^s of the integral
    pencil (a, aA, aB) of `integral` from the column pencil
    adj(x·aA - y·aB)·W, D its coefficients from `adjugate_pencil`, at the
    certified roots, and whether some column cancelled more than half of
    the width, |adj(M)·w| < 2^(-s/2) times the largest coefficient: a
    column that small may be one that vᵀw, not the width, keeps from
    certifying."""
    a, A, B = pencil
    n = len(A)
    entries = list(zip(*D))                     # row-major, n x m
    m = len(entries) // n
    C = [entries[j::m] for j in range(m)]
    top = max(abs(x) for e in entries for x in e)
    tiny = top * top << s
    R, blocks, cancelled = [], [], False
    roots = iter(roots)
    for root in roots:
        re, im, norm2 = _adjugate_column(C, _fixed(root.value, s), s)
        cancelled |= norm2 < tiny
        # a non-real root is followed by its exact conjugate
        if pair := bool(root.value is not None and root.value.imag):
            next(roots)
        blocks.append((len(R), len(R) + 1 if pair else None))
        R += [re, im] if pair else [re]
    MR = tuple([mat_vec(M, r) for r in R] for M in (A, B))
    db = DiagonalizingBasis(n, s, a, tuple(blocks), tuple(R), MR,
                            tuple(gram_of_product(X, R) for X in MR))
    return db, cancelled


def _certified(db, precision):
    """Each residual v_i^T M v_j is at most tol = n 2^(-precision/2)
    max(scale, 1), scale the largest |d_i|, and each |d_i| exceeds it."""
    d2 = list(map(max, _moduli(db)))
    lim, e = _limit(db.n, db.a << 2 * db.s, max(d2), precision)
    return min(d2) << e > lim and all(
        x << e <= lim for G in db.G for x in _off_diagonal(G, db.blocks))


def simultaneous_diagonalize(p: Pencil,
                             precision=DEFAULT_PRECISION) -> DiagonalizingBasis:
    """Common diagonalizing basis of a nondegenerate pencil over C.

    Columns are null vectors of x0*A - y0*B over the projective roots
    (x0 : y0) of the invariant form, read off the exact column pencil
    adj(xA - yB)·w = sum_k x^k y^(n-1-k) c_k, w = `pencil.probe(n)`, at the
    fixed point 2^s, s = precision + 2n + 32, once per real root or
    conjugate pair.  The two Grams R^T M R certify the output
    (`_certified`).  A width whose certificate fails, with a column that
    cancelled more than half of the width (v^T w small), reruns on the
    whole adjugate pencil (W = I), whose column of largest norm stays
    accurate there; otherwise, or if that fails too, the precision doubles.
    """
    n = p.n
    f, D = adjugate_pencil(p)
    if discriminant(f) == 0:
        raise DegeneratePencil("pencil has zero discriminant")
    pencil = integral(p)
    prec = precision
    for _ in range(_MAX_ESCALATIONS):
        s = prec + 2 * n + 32
        roots = complex_roots(f, prec).entries
        db, cancelled = _basis(pencil, D, roots, s)
        if _certified(db, prec):
            return db
        if cancelled:
            I = tuple(map(tuple, identity_matrix(n)))
            db, _ = _basis(pencil, adjugate_pencil(p, I)[1], roots, s)
            if _certified(db, prec):
                return db
        prec *= 2
    raise PrecisionExhausted("simultaneous diagonalization did not certify")


def _assemble_gram(db: DiagonalizingBasis, diag2, precision):
    """H = sum_j t_j w_j w_j^T, w_j column j of the stored M_j R, as a
    GramMatrix: P^-H diag(diag) P^-1 without the inverse.  t_j is
    diag_j / |d_j|^2, twice that at a pair's columns, where |d_j| is the
    larger of |dA_j|, |dB_j| and names M_j; diag2 holds the squared diag_j
    on the scale of db."""
    s = db.s
    paired = {j for b in db.blocks if b[1] is not None for j in b}
    U, W = [], []
    for j, ((x, y), t2) in enumerate(zip(_moduli(db), diag2)):
        w, d2 = (db.MR[0][j], x) if x >= y else (db.MR[1][j], y)
        # u = t w over 2^s within one unit: t over 2^k, |w| < 2^(k-2)
        k = max(map(abs, w)).bit_length() + 2
        t = (isqrt(t2) << 2 * s + k + (j in paired)) // d2
        U.append([v * t >> k for v in w])
        W.append(w)
    # a H over 2^(2s) is sum_j u_j w_j^T = W^T diag(t) W, and U^T is the
    # product W^T diag(t); H over 2^s is that sum floored by a 2^s
    H = tuple(tuple((x >> s) // db.a for x in row)
              for row in gram_of_product(list(zip(*U)), list(zip(*W))))
    scale = max(abs(x) for row in H for x in row)
    # max(scale, 1) 2^(-precision/2), rounded up
    err = dyadic(max(scale + 1, 1 << s), -precision // 2 - s)
    return GramMatrix(H, -s, err)


def reduction_covariant(p: Pencil, precision=DEFAULT_PRECISION) -> GramMatrix:
    """The positive definite Gram matrix H_{A,B} in the standard basis."""
    db = simultaneous_diagonalize(p, precision)
    return _assemble_gram(db, list(map(max, _moduli(db))), precision)


def covariant_variant(p: Pencil, which: str,
                      precision=DEFAULT_PRECISION) -> GramMatrix:
    """Single-form variants: diagonal |dA_i| (R1) or |dB_i| (R2).

    Positive definiteness is not guaranteed; a diagonal value within the
    tolerance of simultaneous_diagonalize raises SingularVariant.
    """
    if which not in ("R1", "R2"):
        raise ValueError("variant must be 'R1' or 'R2'")
    db = simultaneous_diagonalize(p, precision)
    moduli = _moduli(db)
    diag2 = [m[which == "R2"] for m in moduli]
    lim, e = _limit(p.n, db.a << 2 * db.s, max(map(max, moduli)), precision)
    if min(diag2) << e <= lim:
        raise SingularVariant("%s has a zero diagonal value" % which)
    return _assemble_gram(db, diag2, precision)


def gram_det_with_error(H: GramMatrix):
    """det H, exactly: det(M) 2^(ne) by fraction-free elimination, with the
    forward error n^2 max(|H_ij|, 1)^(n-1) error_bound that the entrywise
    error of H propagates into it."""
    n, e = H.n, H.e
    with mp.extraprec(64):
        norm = dyadic(max(abs(x) for row in H.M for x in row), e)
        err = n * n * max(norm, mp.mpf(1)) ** (n - 1) * H.error_bound
    return dyadic(bareiss(H.M)[0], n * e), err


def det_identity(H: GramMatrix, f: BinaryForm, precision=DEFAULT_PRECISION):
    """Compare det H with the Mahler-type leading constant |c| of f, within
    both error bounds plus 2^(-precision/2).  Returns (det_h, mahler,
    agree)."""
    with mp.workprec(precision + 32):
        det_h, det_err = gram_det_with_error(H)
        m, m_err = mahler_measure_with_error(f, precision)
        combined = det_err + m_err + mp.mpf(2) ** (-precision // 2) * max(
            mp.mpf(1), m)
        agree = bool(abs(det_h - m) <= combined)
    return det_h, m, agree


def det_identity_check(p: Pencil, precision=DEFAULT_PRECISION):
    """det_identity of the reduction covariant of p and its invariant
    form.  Returns (det_h, mahler, agree)."""
    return det_identity(reduction_covariant(p, precision), invariant_form(p),
                        precision)
