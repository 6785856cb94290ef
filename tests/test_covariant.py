"""Tests of the reduction covariant: diagonalization, the Hermitian-maximum
construction, the determinant identity, equivariance."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

import pencilred as pr
from helpers import (A0, B0, assemble_gram_reference, covariant_reference,
                     gram_from_mp, gram_of_basis, mp_matrix_of,
                     nullvector_reference, rand_pencil, rand_symmetric,
                     rand_unimodular, scaled_pencil)
from pencilred import covariant, linalg
from pencilred.reduce import form_norm, lll_reduce, rationalize_gram
from pencilred.roots import _certified_roots_cached, dyadic

I4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
DIAG_B = tuple(tuple((2, 3, 0, -1)[i] * int(i == j) for j in range(4))
               for i in range(4))
DIAG_PENCIL = pr.Pencil(4, I4, DIAG_B)
WORKED = pr.Pencil(
    4,
    ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1)),
    ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0)))


def test_diagonalize_already_diagonal():
    db = pr.simultaneous_diagonalize(DIAG_PENCIL, 128)
    with mp.workprec(160):
        ratios = sorted(float(mp.re(b / a)) for a, b in zip(db.dA, db.dB))
        assert max(abs(r - t) for r, t in zip(ratios, [-1, 0, 2, 3])) < 1e-25
        # columns are scaled standard basis vectors
        for col in db.columns:
            mags = sorted(abs(x) for x in col)
            assert mags[-1] > 0.99 and mags[-2] < 1e-25


def test_diagonalize_unit_circle_moduli():
    db = pr.simultaneous_diagonalize(WORKED, 128)
    with mp.workprec(160):
        for a, b in zip(db.dA, db.dB):
            assert abs(abs(a) - abs(b)) < 1e-25


def test_diagonalize_conjugate_closed_columns():
    Bc = tuple(tuple((1, -1, 2, 0)[i] * int(i == j) + int(abs(i - j) == 3)
                     for j in range(4)) for i in range(4))
    p = pr.Pencil(4, I4, Bc)
    assert pr.pencil_discriminant(p) != 0
    db = pr.simultaneous_diagonalize(p, 128)
    with mp.workprec(160):
        cols = [mp.matrix(list(c)) for c in db.columns]
        for c in cols:
            conj = mp.matrix([mp.conj(x) for x in c])
            best = min(max(abs(conj[i] - d[i]) for i in range(4))
                       for d in cols)
            # columns closed under conjugation up to the certified scale
            assert best < 1e-20


def test_diagonalize_rejects_degenerate():
    with pytest.raises(pr.DegeneratePencil):
        pr.simultaneous_diagonalize(pr.Pencil(4, I4, I4), 64)


def test_covariant_diagonal_example():
    H = pr.reduction_covariant(DIAG_PENCIL, 128)
    with mp.workprec(160):
        expected = (2, 3, 1, 1)
        for i in range(4):
            for j in range(4):
                target = expected[i] if i == j else 0
                assert abs(H.entries[i][j] - target) < 1e-25


def test_covariant_worked_orbit_corner():
    H = pr.reduction_covariant(WORKED, 128)
    with mp.workprec(160):
        assert abs(H.entries[0][0] - 1) < 1e-25


def test_covariant_invariants():
    rng = random.Random(31)
    with mp.workprec(192):
        for _ in range(10):
            p = rand_pencil(rng, 4, 3)
            H = pr.reduction_covariant(p, 128)
            n = H.n
            for i in range(n):
                for j in range(n):
                    assert abs(H.entries[i][j] - H.entries[j][i]) \
                        <= H.error_bound
            eigs = mp.eigsy(mp_matrix_of(H.entries), eigvals_only=True)
            assert min(eigs) > H.error_bound * n


def test_covariant_equivariance():
    rng = random.Random(32)
    with mp.workprec(192):
        for _ in range(25):
            p = rand_pencil(rng, 4, 3)
            g = rand_unimodular(rng, 4)
            H = pr.reduction_covariant(p, 128)
            Hg = pr.reduction_covariant(pr.act(g, p), 128)
            hinv = mp_matrix_of(g.inverse().entries)
            expected = hinv.T * mp_matrix_of(H.entries) * hinv
            scale = max(abs(x) for row in Hg.entries for x in row)
            diff = max(abs(Hg.entries[i][j] - expected[i, j])
                       for i in range(4) for j in range(4))
            assert diff <= 1e-9 * scale


def test_covariant_scale_covariance():
    rng = random.Random(33)
    for lam in (2, -3):
        p = rand_pencil(rng, 4, 3)
        ps = pr.Pencil(4, tuple(tuple(lam * x for x in r) for r in p.A),
                       tuple(tuple(lam * x for x in r) for r in p.B))
        H = pr.reduction_covariant(p, 128)
        Hs = pr.reduction_covariant(ps, 128)
        with mp.workprec(160):
            diff = max(abs(Hs.entries[i][j] - abs(lam) * H.entries[i][j])
                       for i in range(4) for j in range(4))
            assert diff < 1e-20


def _pencil_with_zero_end(rng, end, n=4):
    """A seeded nondegenerate pencil with f0 = 0 (end=0: a root at
    infinity) or fn = 0 (end=-1: a root at 0)."""
    while True:
        p = rand_pencil(rng, n, 2)
        if pr.invariant_form(p).coeffs[end] == 0:
            return p


def _assembly_cases():
    rng = random.Random(36)
    cases = [rand_pencil(rng, n, 3)
             for n, count in ((2, 3), (4, 4), (6, 2), (8, 1), (10, 1))
             for _ in range(count)]
    return cases + [_pencil_with_zero_end(rng, 0),
                    _pencil_with_zero_end(rng, -1)]


@pytest.mark.parametrize("precision", (96, 256))
def test_rank_one_assembly_matches_inverse_reference(precision):
    """H from the rank-one sum lies within its error bound of P^-H D P^-1,
    and the Gram handed to LLL (rationalized at `precision` bits, as
    lll_reduce does) is the same bit for bit; also for the R1/R2 variants."""
    for p in _assembly_cases():
        db = pr.simultaneous_diagonalize(p, precision)
        for which in (None, "R1", "R2"):
            if which is None:
                H = pr.reduction_covariant(p, precision)
            else:
                try:
                    H = pr.covariant_variant(p, which, precision)
                except pr.SingularVariant:
                    continue
            with mp.workprec(precision + 2 * p.n + 32):
                diag = [abs(a) if which == "R1" else abs(b) if which == "R2"
                        else max(abs(a), abs(b))
                        for a, b in zip(db.dA, db.dB)]
                R, _ = assemble_gram_reference(db, diag, precision)
                ref = gram_from_mp(R, H.error_bound)
            diff = max(abs(H.entries[i][j] - R[i, j])
                       for i in range(p.n) for j in range(p.n))
            assert diff <= H.error_bound, (p, which)
            assert (rationalize_gram(H, precision)
                    == rationalize_gram(ref, precision)), (p, which)


@pytest.mark.parametrize("precision", (96, 256))
def test_adjugate_columns_match_elimination_reference(precision):
    """Each column read off the adjugate pencil is the null vector that
    full-pivot elimination of x0*A - y0*B finds at the same root, up to a
    unit phase, within 2^(-precision/2)."""
    for p in _assembly_cases():
        db = pr.simultaneous_diagonalize(p, precision)
        n = p.n
        with mp.workprec(precision + 2 * n + 32):
            A, B = mp_matrix_of(p.A), mp_matrix_of(p.B)
            roots = pr.complex_roots(pr.invariant_form(p), precision).entries
            for e, v in zip(roots, db.columns):
                x0, y0 = (1, 0) if e.at_infinity else (e.value, 1)
                u = nullvector_reference(x0 * A - y0 * B, n)
                phase = mp.fsum(mp.conj(a) * b for a, b in zip(u, v))
                assert abs(abs(phase) - 1) <= mp.mpf(2) ** (-precision // 2)
                assert max(abs(b - phase * a) for a, b in zip(u, v)) \
                    <= mp.mpf(2) ** (-precision // 2), (p, e.value)


def test_covariant_matches_independent_reference_at_256():
    """In the benchmark's regime (256 bits, n = 6, 8, 10) H lies within its
    error bound of the covariant built from elimination null vectors and an
    explicit inverse, and rationalize_gram(H, 256), the Gram lll_reduce
    hands to LLL, is the same bit for bit: the same U.  The cases hold a
    root at infinity, a root at 0, roots outside the unit circle, conjugate
    pairs and a rational pencil."""
    rng = random.Random(39)
    cases = [rand_pencil(rng, n, 3) for n in (6, 8, 10) for _ in range(2)]
    cases += [_pencil_with_zero_end(rng, 0, 6),
              _pencil_with_zero_end(rng, -1, 6),
              scaled_pencil(rand_pencil(rng, 6, 3), 6)]
    kinds = set()
    for p in cases:
        H = pr.reduction_covariant(p, 256)
        R, err = covariant_reference(p, 256)
        assert R is not None, p
        diff = max(abs(H.entries[i][j] - R[i, j])
                   for i in range(p.n) for j in range(p.n))
        assert diff <= H.error_bound, p
        ref = gram_from_mp(R, err)
        assert rationalize_gram(H, 256) == rationalize_gram(ref, 256), p
        for e in pr.complex_roots(pr.invariant_form(p), 256).entries:
            kinds.add("infinity" if e.at_infinity else "zero" if not e.value
                      else "pair" if mp.im(e.value) else
                      "outside" if e.outside else "inside")
    assert kinds == {"infinity", "zero", "pair", "outside", "inside"}


@pytest.mark.parametrize("precision", (96, 256))
@pytest.mark.parametrize("den", (2 ** 120, 2 ** 200, 3 ** 100))
def test_covariant_of_large_denominator_pencil(den, precision):
    """With one entry of A0 or B0 moved by 1/den, the common denominator a
    of the pencil is den, far wider than the covariant's fixed point at 96
    bits: H and its R1/R2 variants still lie within error_bound of the
    inverse reference, the common denominator entering H only once."""
    for which in (0, 1):
        rows = [[list(r) for r in A0], [list(r) for r in B0]]
        rows[which][1][1] += Fraction(1, den)
        p = pr.Pencil(4, *(tuple(map(tuple, M)) for M in rows))
        db = pr.simultaneous_diagonalize(p, precision)
        assert db.a == den
        H = pr.reduction_covariant(p, precision)
        R, _ = covariant_reference(p, precision)
        assert R is not None, p
        with mp.workprec(precision + 64):
            assert max(abs(H.entries[i][j] - R[i, j]) for i in range(4)
                       for j in range(4)) <= H.error_bound, (den, which)
        for variant in ("R1", "R2"):
            Hv = pr.covariant_variant(p, variant, precision)
            with mp.workprec(precision + 2 * p.n + 32):
                diag = [abs(x if variant == "R1" else y)
                        for x, y in zip(db.dA, db.dB)]
                Rv, _ = assemble_gram_reference(db, diag, precision)
                assert max(abs(Hv.entries[i][j] - Rv[i, j]) for i in range(4)
                           for j in range(4)) <= Hv.error_bound, (den, variant)


def _diagonal_pencil(K):
    """A = diag(1, 1, 1, K), B = diag(2, 3, 5, 7K): the roots 2, 3, 5, 7
    with unit columns, and |d_1| = 2 against a scale of 7K, so the
    smallness test fails until 4·2^(-precision/2)·7K < 2."""
    return pr.Pencil(4, *(tuple(tuple(x * int(i == j) for j in range(4))
                                for i, x in enumerate(diag))
                          for diag in ((1, 1, 1, K), (2, 3, 5, 7 * K))))


def test_diagonalization_escalates_precision():
    """At 16 bits the certificate of K = 2^20 fails twice, and the
    diagonalization certifies at 64 bits; the escalated H lies within its
    error bound of the 256-bit H.  With K = 2^200 the four levels 16..128
    all fail: PrecisionExhausted."""
    p = _diagonal_pencil(2 ** 20)
    assert pr.simultaneous_diagonalize(p, 16).s == 64 + 2 * 4 + 32
    H, ref = pr.reduction_covariant(p, 16), pr.reduction_covariant(p, 256)
    with mp.workprec(320):
        assert max(abs(H.entries[i][j] - ref.entries[i][j])
                   for i in range(4) for j in range(4)) <= H.error_bound
    with pytest.raises(pr.PrecisionExhausted):
        pr.simultaneous_diagonalize(_diagonal_pencil(2 ** 200), 16)
    with pytest.raises(pr.PrecisionExhausted):
        pr.reduction_covariant(_diagonal_pencil(2 ** 200), 16)


def test_one_diagonalization_per_covariant(monkeypatch):
    """The assembly is a real sum with no certificate of its own:
    reduction_covariant and covariant_variant call simultaneous_diagonalize
    once.  A pencil that needs doubling certifies through that function's
    own loop, and the basis the assembly reads is at the doubled width; the
    R2 variant of DIAG_PENCIL still raises SingularVariant."""
    calls, bases = [], []
    diagonalize = covariant.simultaneous_diagonalize

    def traced(p, precision):
        calls.append(precision)
        bases.append(diagonalize(p, precision))
        return bases[-1]

    monkeypatch.setattr(covariant, "simultaneous_diagonalize", traced)
    H = pr.reduction_covariant(WORKED, 96)
    assert calls == [96] and bases[0].s == 96 + 2 * 4 + 32
    with mp.workprec(160):
        assert abs(H.entries[0][0] - 1) < 1e-25
    calls.clear()
    bases.clear()
    p = _diagonal_pencil(2 ** 20)
    H = pr.reduction_covariant(p, 16)
    assert calls == [16] and bases[0].s == 64 + 2 * 4 + 32
    assert H.e == -bases[0].s
    calls.clear()
    with pytest.raises(pr.SingularVariant):
        pr.covariant_variant(DIAG_PENCIL, "R2", 128)
    assert calls == [128]


def _root_kinds(p, precision=96):
    return {"infinity" if e.at_infinity else "pair" if mp.im(e.value)
            else "real" for e in pr.complex_roots(pr.invariant_form(p),
                                                  precision).entries}


def _covariance_cases(n):
    """Four seeded nondegenerate pencils of size n: A positive definite
    (strictly diagonally dominant), so every root is real; one with a
    conjugate pair; f0 = 0 (a root at infinity); fn = 0 (a root at 0)."""
    rng = random.Random(41 + n)
    while True:
        A = tuple(tuple(x + 4 * n * (i == j) for j, x in enumerate(row))
                  for i, row in enumerate(rand_symmetric(rng, n, 2)))
        real = pr.Pencil(n, A, rand_symmetric(rng, n, 3))
        if pr.pencil_discriminant(real) != 0:
            break
    paired = rand_pencil(rng, n, 3)
    while "pair" not in _root_kinds(paired):
        paired = rand_pencil(rng, n, 3)
    assert _root_kinds(real) == {"real"}
    return [real, paired, _pencil_with_zero_end(rng, 0, n),
            _pencil_with_zero_end(rng, -1, n)]


@pytest.mark.parametrize("precision", (96, 256))
@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_covariance_within_error_bounds(n, precision):
    """H_{g.p} = g^-T H_p g^-1 entrywise within
    Hg.error_bound + n^2 max|g^-1|^2 H.error_bound: the covariant of the
    moved pencil against the exact transform of the covariant, for real
    roots only, a conjugate pair, a root at infinity and a root at 0."""
    rng = random.Random(43 + n)
    for p in _covariance_cases(n):
        g = rand_unimodular(rng, n)
        ginv = g.inverse().entries
        H = pr.reduction_covariant(p, precision)
        Hg = pr.reduction_covariant(pr.act(g, p), precision)
        # g^-T M g^-1 in integers, over 2^H.e
        E = [[sum(ginv[k][i] * H.M[k][l] * ginv[l][j]
                  for k in range(n) for l in range(n)) for j in range(n)]
             for i in range(n)]
        e = min(H.e, Hg.e)
        big = max(abs(x) for row in ginv for x in row)
        with mp.workprec(4 * precision):
            tol = Hg.error_bound + n * n * big * big * H.error_bound
            for i in range(n):
                for j in range(n):
                    diff = (Hg.M[i][j] << Hg.e - e) - (E[i][j] << H.e - e)
                    assert dyadic(abs(diff), e) <= tol, (p, i, j)


def _residual_tolerance(db, n):
    """The tolerance simultaneous_diagonalize certified db at: n 2^(-P/2)
    max(scale, 1), P the precision its width s was made for and scale the
    largest |d_i|."""
    precision = db.s - 2 * n - 32
    scale = max(max(abs(a), abs(b)) for a, b in zip(db.dA, db.dB))
    return n * mp.mpf(2) ** -(-(-precision // 2)) * max(scale, 1)


@pytest.mark.parametrize("precision", (96, 256))
def test_certificate_matches_mpmath_residuals(precision):
    """Every d_i = v_i^T M v_i and residual v_i^T M v_j recomputed in mpmath
    at 4P from db.columns: dA and dB agree within 2^-P, every residual is
    within the certified tolerance, and every max(|dA_i|, |dB_i|) exceeds
    it."""
    for p in _assembly_cases():
        db = pr.simultaneous_diagonalize(p, precision)
        n = p.n
        with mp.workprec(4 * precision):
            cols = db.columns
            tol = _residual_tolerance(db, n)
            ds = []
            for M, lib in ((p.A, db.dA), (p.B, db.dB)):
                Mv = [[mp.fsum(M[k][l] * v[l] for l in range(n))
                       for k in range(n)] for v in cols]
                F = [[mp.fsum(x * y for x, y in zip(cols[i], Mv[j]))
                      for j in range(n)] for i in range(n)]
                ds.append([F[i][i] for i in range(n)])
                for i in range(n):
                    assert abs(F[i][i] - lib[i]) <= mp.mpf(2) ** -precision \
                        * max(1, abs(lib[i])), (p, i)
                    assert all(abs(F[i][j]) <= tol
                               for j in range(i + 1, n)), (p, i)
            assert all(max(abs(a), abs(b)) > tol for a, b in zip(*ds)), p


def test_columns_exact_whatever_the_first_read_precision():
    """The columns are exact dyadics whatever precision they are first
    read at: f = x^2 + y^2 has a conjugate pair, its columns read once at
    53 bits still give v^T A v = dA within 2^-256 at 384 bits."""
    p = pr.Pencil(2, ((0, 1), (1, 0)), ((1, 0), (0, -1)))
    db = pr.simultaneous_diagonalize(p, 256)
    with mp.workprec(53):
        db.columns
    with mp.workprec(384):
        for v, d in zip(db.columns, db.dA):
            vAv = mp.fsum(v[k] * p.A[k][l] * v[l]
                          for k in range(2) for l in range(2))
            assert abs(vAv - d) <= mp.mpf(2) ** -256 * max(1, abs(d))


@pytest.mark.parametrize("every_level", (False, True))
def test_certificate_rejects_rotated_pair_column(every_level, monkeypatch):
    """A pair's column rotated by about 2^-20 in its first two coordinates
    is no null vector: simultaneous_diagonalize doubles its precision and
    certifies at the next width when only the first width is rotated, and
    raises PrecisionExhausted when every width is.  A rotated column has
    not cancelled, so no width falls back to the whole adjugate pencil."""
    adjugate = covariant._adjugate_column
    rotated, blocks = set(), set()

    def rotate(C, z, s):
        re, im, norm2 = adjugate(C, z, s)
        blocks.add(len(C))
        if z and z[1] and s not in rotated and (every_level or not rotated):
            rotated.add(s)
            for part in (re, im):
                part[0], part[1] = (part[0] - (part[1] >> 20),
                                    part[1] + (part[0] >> 20))
        return re, im, norm2

    monkeypatch.setattr(covariant, "_adjugate_column", rotate)
    cases = [p for p in _assembly_cases() if "pair" in _root_kinds(p)]
    assert cases
    for p in cases:
        rotated.clear()
        if every_level:
            with pytest.raises(pr.PrecisionExhausted):
                pr.simultaneous_diagonalize(p, 96)
            assert len(rotated) == covariant._MAX_ESCALATIONS
        else:
            db = pr.simultaneous_diagonalize(p, 96)
            assert db.s == 192 + 2 * p.n + 32, p
    assert blocks == {1}


# At the root 0 of this pencil (f = 4x^4 + 57x^3y + 135x^2y^2 - 48xy^3) the
# null vector is v = (2, -3, 0, 1), orthogonal to every arithmetic
# progression; H at 64 bits (upper triangle of M, e = -104) and the
# lll_reduce g are those of the whole adjugate pencil's largest column at
# every root.
_VANISHING = pr.Pencil(4, ((0, 1, -1, 0), (1, -2, -1, -1), (-1, -1, 1, 3),
                           (0, -1, 3, 0)),
                       ((0, -1, 2, -3), (-1, -1, 1, -1), (2, 1, 2, -1),
                        (-3, -1, -1, 3)))
_VANISHING_H = (
    (30684066463385980978461830760245, -8798704278143413195037973162695,
     -32521487206448742520506433832120, -26917016950247190270195827151850),
    (71655859778019892934490144125566, -37957162171244550698717086670702,
     90588120664784812225915619700030),
    (226118234165493714203546634556362,
     -129958150515442848750927397488614),
    (264751167083893805946296759548551,))
_VANISHING_G = ((1, 0, -1, -1), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 1, -1))


def test_vanishing_probe_column_falls_back(monkeypatch):
    """With the probe an arithmetic progression w_i = (i + 1)·c mod
    (2^61 - 1), the column pencil adj(x·A - y·B)·w vanishes at the root 0:
    the width reruns on the whole adjugate pencil (the block I), certifies,
    and gives its H bit for bit and the g of the default probe."""
    w = tuple(((i + 1) * 0x9E3779B97F4A7C15 % (2 ** 61 - 1),)
              for i in range(4))
    I = tuple(map(tuple, linalg.identity_matrix(4)))
    p = _VANISHING
    g = lll_reduce(p, precision=64).g.entries
    blocks = []
    adjugate = covariant.adjugate_pencil

    def recording(q, W=None):
        blocks.append(W)
        return adjugate(q, w if W is None else W)

    monkeypatch.setattr(covariant, "adjugate_pencil", recording)
    assert adjugate(p, w)[1][0] == (0, 0, 0, 0)
    H = pr.reduction_covariant(p, 64)
    assert blocks == [None, I]
    assert H.e == -104
    assert linalg.symmetric(_VANISHING_H) == H.M
    assert lll_reduce(p, precision=64).g.entries == g == _VANISHING_G


def test_covariant_and_lll_reduce_use_no_mpmath_linear_algebra(monkeypatch):
    """The covariant runs on Python ints from the certified roots to the
    shortest vector: reduction_covariant, lll_reduce, the short-vector and
    cusp tests, form_norm and det_identity of an n = 8 pencil, and a
    sampled n = 4 batch, succeed with mpmath's fdot, matrix and det
    disabled."""
    def disabled(*args, **kwargs):
        raise AssertionError("mpmath linear algebra in the covariant path")

    for name in ("fdot", "matrix", "det"):
        monkeypatch.setattr(mp, name, disabled)
        monkeypatch.setattr(mp.mp, name, disabled)
    p = rand_pencil(random.Random(40), 8, 3)
    H = pr.reduction_covariant(p, 256)
    res = lll_reduce(p, precision=256)
    assert res.reduced == pr.act(res.g, p)
    assert res.gram_reduced.n == H.n == 8
    v, norm = pr.shortest_vector(H, 256)
    assert norm == form_norm(H, v, 256) > 0
    assert pr.epsilon_small_test(H, 2) is True
    assert pr.cusp_membership(H, 1e-9, precision=256) is False
    assert covariant.det_identity(H, pr.invariant_form(p), 256)[2] is True
    batch = pr.sample_pencils(4, 3, 20, 7, precision=96)
    assert all(it.det_identity_ok for it in batch.nondegenerate_items())


@pytest.mark.parametrize("precision", (96, 256))
def test_gram_det_matches_mp_det(precision):
    """The exact det H lies within its returned error of mpmath's det of
    the entries at twice the precision, for n = 4, 6, 8."""
    rng = random.Random(37)
    for n in (4, 6, 8):
        for _ in range(3):
            H = pr.reduction_covariant(rand_pencil(rng, n, 3), precision)
            det, err = covariant.gram_det_with_error(H)
            with mp.workprec(2 * precision):
                ref = mp.det(mp_matrix_of(H.entries))
                assert err > 0 and abs(det - ref) <= err, (n, precision)


def test_covariant_of_rational_rescaling():
    """H of S·p·S is S·H·S for S = diag(1/6, 6, 1, 1), within both error
    bounds: the rational path end to end."""
    p = pr.Pencil(4, A0, B0)
    for precision in (96, 256):
        H = pr.reduction_covariant(p, precision)
        HS = pr.reduction_covariant(scaled_pencil(p, 6), precision)
        with mp.workprec(precision + 64):
            S = (mp.mpf(1) / 6, 6, 1, 1)
            for i in range(4):
                for j in range(4):
                    expected = S[i] * H.entries[i][j] * S[j]
                    bound = HS.error_bound + S[i] * S[j] * H.error_bound
                    assert abs(HS.entries[i][j] - expected) <= bound


def test_from_mp_keeps_entries():
    """The test helper gram_from_mp keeps the entries it is given: a Gram
    built at 136 bits rationalizes the same whether gram_from_mp runs inside
    or outside that working precision."""
    rng = random.Random(38)
    for _ in range(10):
        H = pr.reduction_covariant(rand_pencil(rng, 4, 3), 96)
        g = rand_unimodular(rng, 4)
        with mp.workprec(136):
            M = gram_of_basis(g.entries, H)
            inside = gram_from_mp(M, H.error_bound)
        outside = gram_from_mp(M, H.error_bound)
        assert outside.entries == inside.entries
        assert rationalize_gram(outside, 96) == rationalize_gram(inside, 96)


def test_root_at_zero_certified_once():
    """With fn = 0 the covariant and the Mahler measure share one root
    certificate of f(X,1) with its zero root split off."""
    p = _pencil_with_zero_end(random.Random(37), -1)
    f = pr.invariant_form(p)
    _certified_roots_cached.cache_clear()
    pr.complex_roots.cache_clear()
    pr.reduction_covariant(p, 128)
    pr.mahler_measure_with_error(f, 128)
    assert _certified_roots_cached.cache_info().misses == 1


def test_variant_r1_identity():
    V = pr.covariant_variant(DIAG_PENCIL, "R1", 128)
    with mp.workprec(160):
        for i in range(4):
            for j in range(4):
                assert abs(V.entries[i][j] - int(i == j)) < 1e-25


def test_variant_r2_singular():
    with pytest.raises(pr.SingularVariant):
        pr.covariant_variant(DIAG_PENCIL, "R2", 128)


def test_variants_all_diagonal():
    Bd = tuple(tuple((2, 3, 5, -1)[i] * int(i == j) for j in range(4))
               for i in range(4))
    p = pr.Pencil(4, I4, Bd)
    with mp.workprec(160):
        for which, expected in (("R1", (1, 1, 1, 1)), ("R2", (2, 3, 5, 1))):
            V = pr.covariant_variant(p, which, 128)
            for i in range(4):
                for j in range(4):
                    target = expected[i] if i == j else 0
                    assert abs(V.entries[i][j] - target) < 1e-25
        H = pr.reduction_covariant(p, 128)
        for i in range(4):
            assert abs(H.entries[i][i] - (2, 3, 5, 1)[i]) < 1e-25


def test_det_identity_examples():
    dh, mah, agree = pr.det_identity_check(DIAG_PENCIL, 128)
    with mp.workprec(160):
        assert agree and abs(dh - 6) < 1e-20 and abs(mah - 6) < 1e-20
    dh, mah, agree = pr.det_identity_check(WORKED, 128)
    with mp.workprec(160):
        assert agree and abs(dh - 1) < 1e-20 and abs(mah - 1) < 1e-20


def test_det_identity_random():
    rng = random.Random(34)
    for _ in range(30):
        p = rand_pencil(rng, 4, 3)
        dh, mah, agree = pr.det_identity_check(p, 128)
        assert agree
        with mp.workprec(160):
            assert abs(dh - mah) <= 1e-9 * mah


def test_gram_json():
    H = pr.reduction_covariant(DIAG_PENCIL, 128)
    d = H.to_json_dict()
    assert d["n"] == 4
    assert len(d["entries"]) == 4 and len(d["entries"][0]) == 4
    assert "error_bound" in d
