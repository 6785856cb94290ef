"""The reduction covariant H_{A,B}.

Simultaneous diagonalization of a nondegenerate pencil over C, followed by
the entrywise-maximum construction: in a basis b_1..b_n diagonalizing both
forms, (b_i, b_i)_H = max(|(b_i,b_i)_A|, |(b_i,b_i)_B|) and off-diagonals
vanish.  H is real, positive definite, independent of the basis scaling, and
transforms like the pencil under the unimodular action.

With P = [v_1 .. v_n] and P^T M P = diag(d_i) for M = A and M = B, row i of
P^-1 is (M v_i)^T / d_i, so H = P^-H diag P^-1 is the rank-one sum

    H = sum_i diag_i / |d_i|^2 * conj(w_i) w_i^T,   w_i = M_i v_i,

where M_i is whichever of A, B gives the larger |d_i|.  No matrix is
inverted, and H is Hermitian term by term.

Everything from the certified roots to H runs on Python ints at one fixed
point 2^s, s = precision + 2n + 32.  The roots are exact dyadics; each unit
column v_i is the integer adjugate pencil evaluated at its root (Gaussian
integers; plain ints, zero imaginary parts, at a real root) and normalized
with an integer square root.  With a the common denominator of the pencil,
M v_i, d_i and the residuals v_i^T M v_j are exact integer products with the
integral pencil (aA, aB), the certificate compares squared magnitudes in
integers on the scale of (A, B), and H of (aA, aB), which is a H, is divided
by a once at the end.
"""

from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from operator import mul

import mpmath as mp

from .errors import (DegeneratePencil, PrecisionExhausted, SingularVariant)
from .forms import (DEFAULT_PRECISION, BinaryForm, complex_roots,
                    discriminant, mahler_measure_with_error)
from .linalg import det_bareiss, symmetric
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
    """A common diagonalizing basis in fixed point.

    A vector is a pair (re, im) of int lists over 2^s, a scalar a pair of
    ints over 2^(2s).  v holds the unit columns; Av, Bv, vAv = v^T (aA) v and
    vBv belong to the integral pencil (aA, aB), a times those of (A, B).
    `columns`, `dA` and `dB` are the columns and (b_i, b_i)_A, (b_i, b_i)_B
    of (A, B) in mpmath: mpf where the imaginary part is 0, else mpc.
    """
    n: int
    s: int
    a: int
    v: tuple
    Av: tuple
    Bv: tuple
    vAv: tuple
    vBv: tuple

    @cached_property
    def columns(self):
        return tuple(tuple(_mp(x, y, -self.s) for x, y in zip(*v))
                     for v in self.v)

    @cached_property
    def dA(self):
        return self._scalars(self.vAv)

    @cached_property
    def dB(self):
        return self._scalars(self.vBv)

    def _scalars(self, zs):
        with mp.workprec(2 * self.s):
            return tuple(_mp(x, y, -2 * self.s) / self.a for x, y in zs)


def _mp(x, y, e):
    """(x + iy)·2^e, exactly: an mpf when y = 0, else an mpc."""
    return mp.mpc(dyadic(x, e), dyadic(y, e)) if y else dyadic(x, e)


def _abs2(z):
    return z[0] * z[0] + z[1] * z[1]


def _dot(u, w):
    """u^T w (no conjugation) of Gaussian-integer vectors."""
    (ur, ui), (wr, wi) = u, w
    return (sum(map(mul, ur, wr)) - sum(map(mul, ui, wi)),
            sum(map(mul, ur, wi)) + sum(map(mul, ui, wr)))


def _apply(M, v):
    """M v for an integer matrix M and a Gaussian-integer vector v."""
    return tuple([sum(map(mul, row, x)) for row in M] for x in v)


def _d2(db):
    """max(|vAv_i|, |vBv_i|)^2: the squared |d_i| of the assembly."""
    return [max(_abs2(x), _abs2(y)) for x, y in zip(db.vAv, db.vBv)]


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


def _adjugate_column(C, n, z, s):
    """Unit null vector of M = x0·A - y0·B at the root (x0 : y0) = (z : 1),
    or (1 : 0) for z None; z and the result are Gaussian integers over 2^s.

    M is symmetric of corank 1, so adj M = κ·v vᵀ and every nonzero column
    of adj M is a multiple of v; the column j with the largest |(adj M)_jj|
    is taken.  C[j][i] lists the coefficients of x^k y^(n-1-k) in entry
    (i, j) of the adjugate pencil (of a positive multiple of (A, B), which
    scales adj M alone), evaluated at x0^k y0^(n-1-k), max(|x0|, |y0|) = 1:
    the powers of z, or of 1/z in reverse when |z| > 1.
    """
    one = 1 << s
    if z is None:
        t = ([0] * (n - 1) + [one], [0] * n)
    else:
        x, y = z
        m = x * x + y * y
        inverse = m > one * one
        if inverse:                     # 1/z = conj(z) / |z|^2
            x, y = (x << 2 * s) // m, (-y << 2 * s) // m
        tr, ti = [one], [0]
        for _ in range(n - 1):
            r, i = tr[-1], ti[-1]
            tr.append((r * x - i * y) >> s)
            ti.append((r * y + i * x) >> s)
        t = (tr[::-1], ti[::-1]) if inverse else (tr, ti)

    def at(c):
        return sum(map(mul, c, t[0])), sum(map(mul, c, t[1]))

    j = max(range(n), key=lambda j: _abs2(at(C[j][j])))
    col = [at(c) for c in C[j]]
    norm = max(isqrt(sum(map(_abs2, col))), 1)
    return tuple([(u << s) // norm for u in part] for part in zip(*col))


def simultaneous_diagonalize(p: Pencil,
                             precision=DEFAULT_PRECISION) -> DiagonalizingBasis:
    """Common diagonalizing basis of a nondegenerate pencil over C.

    Columns are null vectors of x0*A - y0*B over the projective roots
    (x0 : y0) of the invariant form, read off the exact adjugate pencil
    adj(xA - yB) = sum_k x^k y^(n-1-k) D_k at the fixed point 2^s,
    s = precision + 2n + 32: in plain ints at a real root, and as the
    conjugate of its partner's for the second root of a conjugate pair.
    With Av_i and Bv_i formed once per column, the off-diagonal residuals
    v_i^T M v_j of the two transformed Gram matrices certify the output: each
    is at most tol = n 2^(-precision/2) max(scale, 1), scale the largest
    |d_i|, and each |d_i| exceeds it.  Else the precision doubles.
    """
    f, D = adjugate_pencil(p)
    if discriminant(f) == 0:
        raise DegeneratePencil("pencil has zero discriminant")
    n = p.n
    a, A, B = integral(p)
    C = [[[Dk[i * n + j] for Dk in D] for i in range(n)] for j in range(n)]
    prec = precision
    for _ in range(_MAX_ESCALATIONS):
        s = prec + 2 * n + 32
        v, Av, Bv, prev = [], [], [], None
        for root in complex_roots(f, prec).entries:
            z = _fixed(root.value, s)
            # complex_roots lists a conjugate pair as consecutive roots
            if z is not None and z[1] and prev == (z[0], -z[1]):
                col, a_, b_ = ((x, [-t for t in y])
                               for x, y in (v[-1], Av[-1], Bv[-1]))
            else:
                col = _adjugate_column(C, n, z, s)
                a_, b_ = _apply(A, col), _apply(B, col)
            v.append(col)
            Av.append(a_)
            Bv.append(b_)
            prev = z
        db = DiagonalizingBasis(n, s, a, tuple(v), tuple(Av), tuple(Bv),
                                tuple(map(_dot, v, Av)),
                                tuple(map(_dot, v, Bv)))
        d2 = _d2(db)
        lim, e = _limit(n, a << 2 * s, max(d2), prec)
        if min(d2) << e > lim and all(
                _abs2(_dot(v[i], W[j])) << e <= lim for W in (Av, Bv)
                for i in range(n) for j in range(i + 1, n)):
            return db
        prec *= 2
    raise PrecisionExhausted("simultaneous diagonalization did not certify")


def _assemble_gram(db: DiagonalizingBasis, diag2, precision):
    """H = sum_i diag_i / |d_i|^2 * conj(w_i) w_i^T with w_i = M_i v_i.

    This is P^-H diag(diag) P^-1 without the inverse: since P^T M P is
    diagonal for M = A and M = B, row i of P^-1 is w_i^T / d_i, where M_i is
    whichever of A, B has the larger |d_i| = |v_i^T M_i v_i|; w_i is the
    stored Av_i or Bv_i.  diag2 holds the squares of the diag_i on the scale
    of db.  Each term is Hermitian, so only the imaginary part of the sum is
    checked.  Returns the real GramMatrix, or None when the imaginary part
    is not negligible.
    """
    n, s = db.n, db.s
    terms = []
    for Av, Bv, d2A, d2B, t2 in zip(db.Av, db.Bv, map(_abs2, db.vAv),
                                    map(_abs2, db.vBv), diag2):
        (wr, wi), d2 = (Av, d2A) if d2A >= d2B else (Bv, d2B)
        # u = diag / |d|^2 conj(w) over 2^s
        c = isqrt(t2) << 2 * s
        terms.append((wr, wi, [x * c // d2 for x in wr],
                       [-x * c // d2 for x in wi]))
    # entry k of wr, wi, ur, ui across the terms
    WR, WI, UR, UI = (list(zip(*part)) for part in zip(*terms))
    # the sum over 2^(2s) is a H; H over 2^s
    q = db.a << s
    H = {(k, l): ((sum(map(mul, UR[k], WR[l])) - sum(map(mul, UI[k], WI[l])))
                  // q,
                  (sum(map(mul, UR[k], WI[l])) + sum(map(mul, UI[k], WR[l])))
                  // q)
         for k in range(n) for l in range(k, n)}
    scale2 = max(map(_abs2, H.values()))
    imag = max(abs(y) for _, y in H.values())
    lim, e = _limit(n, 1 << s, scale2, precision)
    if imag * imag << e > lim:
        return None
    # imag + max(scale, 1) 2^(-precision/2), rounded up
    h = e // 2
    err = dyadic((imag << h) + max(isqrt(scale2) + 1, 1 << s), -s - h)
    return GramMatrix(symmetric([[H[k, l][0] for l in range(k, n)]
                                 for k in range(n)]), -s, err)


def reduction_covariant(p: Pencil, precision=DEFAULT_PRECISION) -> GramMatrix:
    """The positive definite Gram matrix H_{A,B} in the standard basis."""
    prec = precision
    for _ in range(_MAX_ESCALATIONS):
        db = simultaneous_diagonalize(p, prec)
        H = _assemble_gram(db, _d2(db), prec)
        if H is not None:
            return H
        prec *= 2
    raise PrecisionExhausted("covariant assembly did not certify")


def covariant_variant(p: Pencil, which: str,
                      precision=DEFAULT_PRECISION) -> GramMatrix:
    """Single-form variants: diagonal |dA_i| (R1) or |dB_i| (R2).

    Positive definiteness is not guaranteed; a diagonal value within the
    tolerance of simultaneous_diagonalize raises SingularVariant.
    """
    if which not in ("R1", "R2"):
        raise ValueError("variant must be 'R1' or 'R2'")
    db = simultaneous_diagonalize(p, precision)
    diag2 = [_abs2(z) for z in (db.vAv if which == "R1" else db.vBv)]
    lim, e = _limit(p.n, db.a << 2 * db.s, max(_d2(db)), precision)
    if min(diag2) << e <= lim:
        raise SingularVariant("%s has a zero diagonal value" % which)
    H = _assemble_gram(db, diag2, precision)
    if H is None:
        raise PrecisionExhausted("variant assembly did not certify")
    return H


def gram_det_with_error(H: GramMatrix):
    """det H, exactly: det(M) 2^(ne) by fraction-free elimination, with the
    forward error n^2 max(|H_ij|, 1)^(n-1) error_bound that the entrywise
    error of H propagates into it."""
    n, e = H.n, H.e
    with mp.extraprec(64):
        norm = dyadic(max(abs(x) for row in H.M for x in row), e)
        err = n * n * max(norm, mp.mpf(1)) ** (n - 1) * H.error_bound
    return dyadic(det_bareiss(H.M), n * e), err


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
