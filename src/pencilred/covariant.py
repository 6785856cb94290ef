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
"""

from dataclasses import dataclass

import mpmath as mp

from .errors import (DegeneratePencil, PrecisionExhausted, SingularVariant)
from .forms import (DEFAULT_PRECISION, BinaryForm, complex_roots,
                    discriminant, mahler_measure_with_error)
from .pencil import Pencil, adjugate_pencil, invariant_form
from .roots import to_mpf

_MAX_ESCALATIONS = 4


@dataclass(frozen=True)
class GramMatrix:
    n: int
    entries: tuple          # n x n of mpf
    error_bound: object     # mpf, entrywise absolute error estimate

    def as_mp(self):
        return mp.matrix([list(row) for row in self.entries])

    def to_json_dict(self, digits=30):
        return {"n": self.n,
                "entries": [[mp.nstr(x, digits) for x in row]
                            for row in self.entries],
                "error_bound": mp.nstr(self.error_bound, 8)}

    @classmethod
    def from_mp(cls, M, error_bound):
        """Keeps the entries of M as they are, at their own precision."""
        n = M.rows
        entries = tuple(tuple(M[i, j] for j in range(n)) for i in range(n))
        return cls(n, entries, mp.mpf(error_bound))


@dataclass(frozen=True)
class DiagonalizingBasis:
    n: int
    columns: tuple          # n columns, each a tuple of mpc (mpf: real root)
    dA: tuple               # (b_i, b_i)_A
    dB: tuple               # (b_i, b_i)_B


def _mp_rows(rows):
    return [[to_mpf(x) for x in row] for row in rows]


def _adjugate_column(C, n, z):
    """Unit null vector of M = x0·A - y0·B at the root (x0 : y0) = (z : 1),
    or (1 : 0) for z None.

    M is symmetric of corank 1, so adj M = κ·v vᵀ and every nonzero column
    of adj M is a multiple of v; the column j with the largest |(adj M)_jj|
    is taken.  C[i][j] lists the coefficients of x^k y^(n-1-k) in entry
    (i, j) of the adjugate pencil (of a positive multiple of (A, B), which
    scales adj M alone), evaluated at x0^k y0^(n-1-k), max(|x0|, |y0|) = 1.
    """
    if z is None:
        t = [0] * (n - 1) + [1]
    else:
        w = z if abs(z) <= 1 else 1 / z
        t = [mp.mpf(1)]
        for _ in range(n - 1):
            t.append(t[-1] * w)
        if w is not z:
            t.reverse()
    j = max(range(n), key=lambda j: abs(mp.fdot(C[j][j], t)))
    col = [mp.fdot(C[i][j], t) for i in range(n)]
    norm = mp.sqrt(mp.fsum(abs(x) ** 2 for x in col))
    return tuple(x / norm for x in col)


def simultaneous_diagonalize(p: Pencil,
                             precision=DEFAULT_PRECISION) -> DiagonalizingBasis:
    """Common diagonalizing basis of a nondegenerate pencil over C.

    Columns are null vectors of x0*A - y0*B over the projective roots
    (x0 : y0) of the invariant form, read off the exact adjugate pencil
    adj(xA - yB) = sum_k x^k y^(n-1-k) D_k: in real arithmetic at a real
    root, and as the conjugate of its partner's for the second root of a
    conjugate pair.  With Av_i and Bv_i formed once per column, the
    off-diagonal residuals of the two transformed Gram matrices certify the
    output.
    """
    f, D = adjugate_pencil(p)
    if discriminant(f) == 0:
        raise DegeneratePencil("pencil has zero discriminant")
    n = p.n
    C = [[[Dk[i * n + j] for Dk in D] for j in range(n)] for i in range(n)]
    prec = precision
    for _ in range(_MAX_ESCALATIONS):
        with mp.workprec(prec + 2 * n + 32):
            Amp, Bmp = _mp_rows(p.A), _mp_rows(p.B)
            cols, Av, Bv = [], [], []
            prev = None
            for e in complex_roots(f, prec).entries:
                z = e.value
                if z is not None and not mp.im(z):
                    z = mp.re(z)
                # complex_roots lists a conjugate pair as consecutive roots
                if isinstance(z, mp.mpc) and prev == mp.conj(z):
                    v, a, b = (tuple(mp.conj(x) for x in y)
                               for y in (cols[-1], Av[-1], Bv[-1]))
                else:
                    v = _adjugate_column(C, n, z)
                    a = tuple(mp.fdot(row, v) for row in Amp)
                    b = tuple(mp.fdot(row, v) for row in Bmp)
                cols.append(v)
                Av.append(a)
                Bv.append(b)
                prev = z
            dA = [mp.fdot(v, a) for v, a in zip(cols, Av)]
            dB = [mp.fdot(v, b) for v, b in zip(cols, Bv)]
            scale = max(max(abs(a), abs(b)) for a, b in zip(dA, dB))
            tol = mp.mpf(2) ** (-prec // 2) * max(scale, mp.mpf(1)) * n
            resid = max(abs(mp.fdot(cols[i], W[j])) for W in (Av, Bv)
                        for i in range(n) for j in range(i + 1, n))
            if resid <= tol and min(
                    max(abs(a), abs(b)) for a, b in zip(dA, dB)) > tol:
                return DiagonalizingBasis(n, tuple(cols), tuple(dA), tuple(dB))
        prec *= 2
    raise PrecisionExhausted("simultaneous diagonalization did not certify")


def _assemble_gram(p: Pencil, db: DiagonalizingBasis, diag, precision):
    """H = sum_i diag_i / |d_i|^2 * conj(w_i) w_i^T with w_i = M_i v_i.

    This is P^-H diag(diag) P^-1 without the inverse: since P^T M P is
    diagonal for M = A and M = B, row i of P^-1 is w_i^T / d_i, where M_i is
    whichever of A, B has the larger |d_i| = |v_i^T M_i v_i|.  Each term is
    Hermitian, so only the imaginary part of the sum is checked.  Returns the
    real GramMatrix, or None when the imaginary part is not negligible.
    """
    n = db.n
    Amp, Bmp = _mp_rows(p.A), _mp_rows(p.B)
    H = [[mp.mpc(0)] * n for _ in range(n)]
    for v, a, b, t in zip(db.columns, db.dA, db.dB, diag):
        M, d = (Amp, a) if abs(a) >= abs(b) else (Bmp, b)
        w = [mp.fdot(row, v) for row in M]
        c = t / abs(d) ** 2
        u = [c * mp.conj(x) for x in w]
        for i in range(n):
            for j in range(i, n):
                H[i][j] += u[i] * w[j]
    scale = max(abs(H[i][j]) for i in range(n) for j in range(i, n))
    imag_max = max(abs(mp.im(H[i][j]))
                   for i in range(n) for j in range(i, n))
    tol = n * mp.mpf(2) ** (-precision // 2) * max(scale, mp.mpf(1))
    if imag_max > tol:
        return None
    entries = tuple(tuple(mp.re(H[min(i, j)][max(i, j)]) for j in range(n))
                    for i in range(n))
    err = imag_max + max(scale, mp.mpf(1)) * mp.mpf(2) ** (-precision // 2)
    return GramMatrix(n, entries, err)


def reduction_covariant(p: Pencil, precision=DEFAULT_PRECISION) -> GramMatrix:
    """The positive definite Gram matrix H_{A,B} in the standard basis."""
    prec = precision
    for _ in range(_MAX_ESCALATIONS):
        db = simultaneous_diagonalize(p, prec)
        with mp.workprec(prec + 2 * p.n + 32):
            diag = [max(abs(a), abs(b)) for a, b in zip(db.dA, db.dB)]
            H = _assemble_gram(p, db, diag, prec)
            if H is not None:
                return H
        prec *= 2
    raise PrecisionExhausted("covariant assembly did not certify")


def covariant_variant(p: Pencil, which: str,
                      precision=DEFAULT_PRECISION) -> GramMatrix:
    """Single-form variants: diagonal |dA_i| (R1) or |dB_i| (R2).

    Positive definiteness is not guaranteed; a vanishing diagonal value
    raises SingularVariant.
    """
    if which not in ("R1", "R2"):
        raise ValueError("variant must be 'R1' or 'R2'")
    db = simultaneous_diagonalize(p, precision)
    with mp.workprec(precision + 2 * p.n + 32):
        vals = db.dA if which == "R1" else db.dB
        scale = max(max(abs(a), abs(b)) for a, b in zip(db.dA, db.dB))
        tol = p.n * mp.mpf(2) ** (-precision // 2) * max(scale, mp.mpf(1))
        diag = [abs(v) for v in vals]
        if min(diag) <= tol:
            raise SingularVariant("%s has a zero diagonal value" % which)
        H = _assemble_gram(p, db, diag, precision)
        if H is None:
            raise PrecisionExhausted("variant assembly did not certify")
        return H


def gram_det_with_error(H: GramMatrix):
    """Determinant of a GramMatrix with a crude forward error bound."""
    n = H.n
    with mp.extraprec(64):
        d = mp.det(H.as_mp())
        norm = max(abs(x) for row in H.entries for x in row)
        err = (n * n * max(norm, mp.mpf(1)) ** (n - 1) * H.error_bound
               + abs(d) * mp.mpf(2) ** (-mp.mp.prec + 16))
    return d, err


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
