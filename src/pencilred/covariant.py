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
                    mahler_measure_with_error)
from .pencil import Pencil, invariant_form, pencil_discriminant
from .roots import to_mpf

_MAX_ESCALATIONS = 4


@dataclass(frozen=True)
class GramMatrix:
    n: int
    entries: tuple          # n x n of mpf
    error_bound: object     # mpf, entrywise absolute error estimate
    scale_class_tag: str = ""

    def as_mp(self):
        return mp.matrix([list(row) for row in self.entries])

    def to_json_dict(self, digits=30):
        return {"n": self.n,
                "entries": [[mp.nstr(x, digits) for x in row]
                            for row in self.entries],
                "error_bound": mp.nstr(self.error_bound, 8)}

    @classmethod
    def from_mp(cls, M, error_bound, tag=""):
        """Keeps the entries of M as they are, at their own precision."""
        n = M.rows
        entries = tuple(tuple(M[i, j] for j in range(n)) for i in range(n))
        return cls(n, entries, mp.mpf(error_bound), tag)


@dataclass(frozen=True)
class DiagonalizingBasis:
    n: int
    columns: tuple          # n columns, each a tuple of mpc
    dA: tuple               # (b_i, b_i)_A
    dB: tuple               # (b_i, b_i)_B


def _mat_to_mp(rows):
    return mp.matrix([[to_mpf(x) for x in row] for row in rows])


def _nullvector(M, n):
    """Unit null vector of a numerically rank-(n-1) complex matrix.

    Gaussian elimination with full pivoting; the free column after n-1 steps
    carries the solution.
    """
    a = [[mp.mpc(M[i, j]) for j in range(n)] for i in range(n)]
    col_perm = list(range(n))
    for step in range(n - 1):
        # full pivot on the remaining block
        best, bi, bj = mp.mpf(-1), step, step
        for i in range(step, n):
            for j in range(step, n):
                m = abs(a[i][j])
                if m > best:
                    best, bi, bj = m, i, j
        if best == 0:
            break
        a[step], a[bi] = a[bi], a[step]
        if bj != step:
            for row in a:
                row[step], row[bj] = row[bj], row[step]
            col_perm[step], col_perm[bj] = col_perm[bj], col_perm[step]
        piv = a[step][step]
        for i in range(step + 1, n):
            f = a[i][step] / piv
            if f != 0:
                for j in range(step, n):
                    a[i][j] -= f * a[step][j]
    x = [mp.mpc(0)] * n
    x[n - 1] = mp.mpc(1)
    for i in range(n - 2, -1, -1):
        s = sum(a[i][j] * x[j] for j in range(i + 1, n))
        x[i] = -s / a[i][i]
    v = [mp.mpc(0)] * n
    for pos, orig in enumerate(col_perm):
        v[orig] = x[pos]
    norm = mp.sqrt(sum(abs(c) ** 2 for c in v))
    return [c / norm for c in v]


def _bilinear_mp(M, u, v):
    n = M.rows
    w = M * mp.matrix(list(v))
    return sum(u[i] * w[i] for i in range(n))


def simultaneous_diagonalize(p: Pencil,
                             precision=DEFAULT_PRECISION) -> DiagonalizingBasis:
    """Common diagonalizing basis of a nondegenerate pencil over C.

    Columns are null vectors of x0*A - y0*B over the projective roots
    (x0 : y0) of the invariant form; these are exactly the eigenvectors of
    A_a^-1 B for any valid auxiliary form a (the result is provably
    independent of that choice).  Residuals of the two transformed Gram
    matrices certify the output.
    """
    if pencil_discriminant(p) == 0:
        raise DegeneratePencil("pencil has zero discriminant")
    f = invariant_form(p)
    n = p.n
    prec = precision
    for _ in range(_MAX_ESCALATIONS):
        with mp.workprec(prec + 2 * n + 32):
            Amp = _mat_to_mp(p.A)
            Bmp = _mat_to_mp(p.B)
            rs = _projective_roots(f, prec)
            cols, dA, dB = [], [], []
            for (x0, y0) in rs:
                M = mp.matrix(n)
                for i in range(n):
                    for j in range(n):
                        M[i, j] = x0 * Amp[i, j] - y0 * Bmp[i, j]
                v = _nullvector(M, n)
                cols.append(tuple(v))
                dA.append(_bilinear_mp(Amp, v, v))
                dB.append(_bilinear_mp(Bmp, v, v))
            scale = max(max(abs(a), abs(b)) for a, b in zip(dA, dB))
            tol = mp.mpf(2) ** (-prec // 2) * max(scale, mp.mpf(1)) * n
            resid = mp.mpf(0)
            for i in range(n):
                for j in range(i + 1, n):
                    resid = max(resid,
                                abs(_bilinear_mp(Amp, cols[i], cols[j])),
                                abs(_bilinear_mp(Bmp, cols[i], cols[j])))
            if resid <= tol and min(
                    max(abs(a), abs(b)) for a, b in zip(dA, dB)) > tol:
                return DiagonalizingBasis(n, tuple(cols), tuple(dA), tuple(dB))
        prec *= 2
    raise PrecisionExhausted("simultaneous diagonalization did not certify")


def _projective_roots(f, precision):
    """Projective roots (x0 : y0) of f, |x0|^2 + |y0|^2 = 1, conjugate-closed.

    Read off the certified root set of f: infinity is (1 : 0) and a finite
    root z is (z : 1) / sqrt(1 + |z|^2).
    """
    out = []
    for e in complex_roots(f, precision).entries:
        if e.at_infinity:
            out.append((mp.mpc(1), mp.mpc(0)))
        else:
            s = mp.sqrt(1 + abs(e.value) ** 2)
            out.append((e.value / s, 1 / s))
    return out


def _assemble_gram(p: Pencil, db: DiagonalizingBasis, diag, precision):
    """H = sum_i diag_i / |d_i|^2 * conj(w_i) w_i^T with w_i = M_i v_i.

    This is P^-H diag(diag) P^-1 without the inverse: since P^T M P is
    diagonal for M = A and M = B, row i of P^-1 is w_i^T / d_i, where M_i is
    whichever of A, B has the larger |d_i| = |v_i^T M_i v_i|.  Each term is
    Hermitian, so only the imaginary part of the sum is checked.  Returns the
    real GramMatrix, or None when the imaginary part is not negligible.
    """
    n = db.n
    Amp = _mat_to_mp(p.A)
    Bmp = _mat_to_mp(p.B)
    H = [[mp.mpc(0)] * n for _ in range(n)]
    for v, a, b, t in zip(db.columns, db.dA, db.dB, diag):
        M, d = (Amp, a) if abs(a) >= abs(b) else (Bmp, b)
        w = [sum(M[i, j] * v[j] for j in range(n)) for i in range(n)]
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
