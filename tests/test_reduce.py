"""Tests of lattice reduction, short vectors, and Siegel coordinates."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

import pencilred as pr
import pencilred.reduce
from pencilred.reduce import (Lattice, _enumerate_minima, _iroot, exact_gram,
                              form_norm, lll_gram, rationalize_gram,
                              rebase_gram)
from pencilred.roots import man_exp
from helpers import (_gso_fraction, clear_denominators, det_ratio,
                     enumerate_minima_reference, gram_from_mp, gram_of_basis,
                     is_reduced_oracle, iwasawa_reference, lll_gram_reference,
                     mp_matrix_of, planted_gram, rand_pencil, rand_unimodular,
                     rationalize_gram_reference, scaled_pencil)

I4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
DIAG_B = tuple(tuple((2, 3, 0, -1)[i] * int(i == j) for j in range(4))
               for i in range(4))
DIAG_PENCIL = pr.Pencil(4, I4, DIAG_B)


def gram_identity(n=4):
    return gram_from_mp([[int(i == j) for j in range(n)] for i in range(n)],
                        0)


def gram_diag(vals):
    n = len(vals)
    return gram_from_mp([[mp.mpf(vals[i]) if i == j else 0 for j in range(n)]
                         for i in range(n)], 0)


def test_lll_reduce_diagonal_sort():
    res = pr.lll_reduce(DIAG_PENCIL, precision=128)
    # g is a signed permutation
    for row in res.g.entries:
        assert sorted(abs(x) for x in row) == [0, 0, 0, 1]
    assert res.reduced == pr.act(res.g, DIAG_PENCIL)
    assert pr.invariant_form(res.reduced) == pr.invariant_form(DIAG_PENCIL)
    with mp.workprec(160):
        diag = [res.gram_reduced.entries[i][i] for i in range(4)]
        assert [round(float(x)) for x in diag] == [1, 1, 2, 3]


def test_lll_reduce_identity_when_reduced():
    Bd = tuple(tuple((0, 1, 2, 3)[i] * int(i == j) for j in range(4))
               for i in range(4))
    p = pr.Pencil(4, I4, Bd)
    res = pr.lll_reduce(p, precision=128)
    assert res.g.entries == I4
    assert res.reduced == p


def test_lll_reduce_reducedness_certified():
    rng = random.Random(41)
    for _ in range(15):
        p = rand_pencil(rng, 4, 3)
        h = rand_unimodular(rng, 4, ops=10, coeff=4)
        q = pr.act(h, p)
        res = pr.lll_reduce(q, precision=128)
        assert pr.invariant_form(res.reduced) == pr.invariant_form(p)
        H = pr.reduction_covariant(q, 128)
        G, _ = rationalize_gram(H, 128)
        U = [list(r) for r in
             pr.linalg.transpose(pr.linalg.inverse_unimodular(
                 [list(r) for r in res.g.entries]))]
        assert is_reduced_oracle(U, G)


def test_lll_reduce_sl_normalize():
    """det g = +1, and a flipped first vector leaves the basis reduced for
    the new gram_reduced, whose own lattice the lattice answers then read."""
    rng = random.Random(42)
    flipped = 0
    for _ in range(10):
        p = rand_pencil(rng, 4, 3)
        res = pr.lll_reduce(p, precision=128, sl_normalize=True)
        assert res.det_g == 1
        assert res.reduced == pr.act(res.g, p)
        flipped += pr.lll_reduce(p, precision=128).det_g == -1
        G, _ = exact_gram(res.gram_reduced, 128)
        assert is_reduced_oracle(pr.linalg.identity_matrix(4), G)
        kept, fresh = _exact_pass_lattice(res.gram_reduced, 128)
        assert kept == fresh
    assert flipped


def test_lll_reduce_reduced_is_act():
    """The reduced pencil U (A, B) U^T is g . (A, B), g = U^-T, on integral
    and rational pencils, n = 2..10."""
    rng = random.Random(43)
    for n in (2, 4, 6, 8, 10):
        for s in (1, 6):
            p = rand_pencil(rng, n, 3)
            if s > 1:
                p = scaled_pencil(p, s)
            res = pr.lll_reduce(p, precision=128)
            assert res.reduced == pr.act(res.g, p)


def test_lll_reduce_rejects_degenerate():
    # zero discriminant with f != 0, and f = 0 (a common kernel vector)
    Z = I4[:3] + ((0, 0, 0, 0),)
    for p in (pr.Pencil(4, I4, I4), pr.Pencil(4, Z, DIAG_B[:3] + Z[3:])):
        with pytest.raises(pr.DegeneratePencil):
            pr.lll_reduce(p)


@pytest.mark.parametrize("delta", [1.5, 0.25, float("nan")])
def test_lll_reduce_rejects_bad_delta_before_covariant(delta, monkeypatch):
    """A delta outside (0.25, 1) is a RangeError, raised before the
    covariant is built."""
    built = []
    monkeypatch.setattr(pencilred.reduce, "reduction_covariant",
                        lambda *args: built.append(args))
    with pytest.raises(pr.RangeError):
        pr.lll_reduce(DIAG_PENCIL, delta=delta)
    assert not built


def _exact_pass_lattice(H, precision):
    """The lattice the lattice answers read for H, and a fresh one."""
    return (pencilred.reduce._lattice(H, precision),
            lll_gram(*exact_gram(H, precision)))


def test_lll_reduce_reduced_for_exact_gram():
    """gram_reduced is LLL-reduced as it stands (its basis U is reduced) for
    exact_gram(gram_reduced, P), the Gram every later lattice answer reads,
    and those answers read the exact pass's lattice, which equals a fresh
    lll_gram on that Gram field by field."""
    rng = random.Random(60)
    for n in (6, 8, 10):
        for P in (128, 256, 512):
            p = pr.act(rand_unimodular(rng, n, ops=10, coeff=3),
                       rand_pencil(rng, n, 3))
            pencilred.reduce._lll_at.cache_clear()
            res = pr.lll_reduce(p, precision=P)
            assert res.reduced == pr.act(res.g, p)
            G, s = exact_gram(res.gram_reduced, P)
            assert is_reduced_oracle(pr.linalg.identity_matrix(n), G)
            hits = pencilred.reduce._lll_at.cache_info().hits
            kept, fresh = _exact_pass_lattice(res.gram_reduced, P)
            assert pencilred.reduce._lll_at.cache_info().hits == hits + 1
            assert (kept.U, kept.d, kept.lam, kept.s, kept.G) == \
                (fresh.U, fresh.d, fresh.lam, fresh.s, fresh.G)


def _skewed_pencil():
    rng = random.Random(1)
    return pr.act(rand_unimodular(rng, 4, ops=120, coeff=9),
                  rand_pencil(rng, 4, 3))


def test_lll_reduce_escalates_and_corrects(monkeypatch):
    """On a skewed pencil H rationalized at 64 bits is not positive definite,
    so the coarse pass doubles to 128 bits, and the exact pass then changes
    the coarse basis (one more exact pass leaves it alone).  g is still
    exact and U reduced for the exact Gram, with or without sl_normalize,
    and the lattice answers read the lattice of exact_gram(gram_reduced)."""
    widths, moved = [], []
    rationalize, lll = pencilred.reduce.rationalize_gram, lll_gram

    def recording_rationalize(H, bits):
        widths.append(bits)
        return rationalize(H, bits)

    def recording_lll(G, s=1, delta=0.99):
        lattice = lll(G, s, delta)
        moved.append(lattice.U != pr.linalg.identity_matrix(len(G)))
        return lattice

    monkeypatch.setattr(pencilred.reduce, "rationalize_gram",
                        recording_rationalize)
    monkeypatch.setattr(pencilred.reduce, "lll_gram", recording_lll)
    p = _skewed_pencil()
    for P, sl in ((128, False), (256, False), (256, True)):
        widths.clear()
        moved.clear()
        pencilred.reduce._lll_at.cache_clear()
        res = pr.lll_reduce(p, precision=P, sl_normalize=sl)
        exact = min(P, 192)
        assert widths == [64, 128, exact, exact]
        # coarse pass (after the failed 64-bit one), corrected exact pass,
        # confirming exact pass
        assert moved == [True, True, False]
        assert res.det_g in (1, -1) and res.det_g == res.g.det
        assert res.det_g == 1 or not sl
        assert res.reduced == pr.act(res.g, p)
        G, _ = exact_gram(res.gram_reduced, P)
        assert is_reduced_oracle(pr.linalg.identity_matrix(4), G)
        kept, fresh = _exact_pass_lattice(res.gram_reduced, P)
        assert kept == fresh


def _skewed_pencils():
    """Skewed pencils whose covariant, rationalized at 128 bits, is not
    positive definite; on their own grid, -H.e bits, it is."""
    for ops, seed in ((80, 9), (100, 11), (120, 7)):
        rng = random.Random(seed)
        yield pr.act(rand_unimodular(rng, 4, ops=ops, coeff=9),
                     rand_pencil(rng, 4, 3))


def _record_widths(monkeypatch):
    """The widths `lll_reduce` rationalizes at, in order."""
    widths = []
    rationalize = pencilred.reduce.rationalize_gram

    def recording_rationalize(H, bits):
        widths.append(bits)
        return rationalize(H, bits)

    monkeypatch.setattr(pencilred.reduce, "rationalize_gram",
                        recording_rationalize)
    return widths


def test_lll_reduce_skewed_escalates_past_precision(monkeypatch):
    """At P = 128 the coarse pass doubles past the precision, to 256 bits,
    and the pencil reduces: g exact and U reduced on the exact Gram."""
    widths = _record_widths(monkeypatch)
    for p in _skewed_pencils():
        widths.clear()
        pencilred.reduce._lll_at.cache_clear()
        res = pr.lll_reduce(p, precision=128)
        assert widths == [64, 128, 256, 128]
        assert res.det_g in (1, -1) and res.reduced == pr.act(res.g, p)
        G, _ = exact_gram(res.gram_reduced, 128)
        assert is_reduced_oracle(pr.linalg.identity_matrix(4), G)


def test_lll_reduce_not_positive_definite_on_own_grid(monkeypatch):
    """A covariant Gram that is not positive definite even on its own grid,
    -H.e bits, raises PrecisionExhausted, not lll_gram's ValueError."""
    widths = _record_widths(monkeypatch)

    def not_positive_definite(G, s=1, delta=0.99):
        raise ValueError("Gram matrix is not positive definite")

    monkeypatch.setattr(pencilred.reduce, "lll_gram", not_positive_definite)
    p = next(_skewed_pencils())
    with pytest.raises(pr.PrecisionExhausted):
        pr.lll_reduce(p, precision=128)
    assert widths == [64, 128, 256, -pr.reduction_covariant(p, 128).e]


def test_one_lll_per_gram(monkeypatch):
    """lll_reduce runs LLL twice (coarse and exact pass) on a benign pencil,
    and the cusp and eps-small tests on its gram_reduced reuse the exact
    pass; on a Gram from elsewhere the eps-small test and the cusp test
    share one LLL."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return lll_gram(*args, **kwargs)

    monkeypatch.setattr(pencilred.reduce, "lll_gram", counting)
    pencilred.reduce._lll_at.cache_clear()
    res = pr.lll_reduce(rand_pencil(random.Random(62), 6, 3))
    pr.cusp_membership(res.gram_reduced, 0.5)
    pr.epsilon_small_test(res.gram_reduced, 0.5)
    assert len(calls) == 2
    calls.clear()
    H = planted_gram(random.Random(63), 6, mp.mpf(1) / 50)
    pr.epsilon_small_test(H, 0.5)
    pr.cusp_membership(H, 0.5)
    assert len(calls) == 1


def test_lll_quality_after_big_transform():
    rng = random.Random(43)
    for _ in range(5):
        p = rand_pencil(rng, 4, 2)
        base = pr.lll_reduce(p, precision=160)
        h = rand_unimodular(rng, 4, ops=26, coeff=9)
        big = max(abs(x) for r in h.entries for x in r)
        assert big > 10 ** 3   # genuinely large transform
        q = pr.act(h, p)
        res = pr.lll_reduce(q, precision=160)
        size = lambda pen: max(abs(x) for M in (pen.A, pen.B) for r in M
                               for x in r)
        assert size(res.reduced) <= 10 * size(base.reduced)


def test_lll_gram_against_oracle():
    rng = random.Random(44)
    for _ in range(20):
        n = rng.choice((2, 3, 4))
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if pr.linalg.bareiss(M)[0] == 0:
            continue
        G = pr.linalg.mat_mul(M, pr.linalg.transpose(M))
        U = lll_gram(G).U
        assert pr.linalg.bareiss(U)[0] in (1, -1)
        Gr = pr.linalg.mat_mul(U, pr.linalg.mat_mul(G, pr.linalg.transpose(U)))
        assert is_reduced_oracle(pr.linalg.identity_matrix(n), Gr)
        assert is_reduced_oracle(U, G)
        for delta in (0.99, 0.75, 0.51):
            assert lll_gram(G, delta=delta).U == lll_gram_reference(G, delta)


def _gram_from_ldl(halves, bstar):
    """G = L diag(bstar) L^T, L unit lower triangular, L_ij = halves[i][j]/2."""
    n = len(bstar)
    L = [[Fraction(halves[i][j], 2) if j < i else Fraction(int(i == j))
          for j in range(n)] for i in range(n)]
    return [[sum(L[i][t] * bstar[t] * L[j][t] for t in range(n))
             for j in range(n)] for i in range(n)]


def test_lll_gram_matches_reference_on_covariants():
    """Same U, bit for bit, as the Fraction LLL that recomputes the whole
    Gram-Schmidt data after every swap."""
    rng = random.Random(50)
    cases = [(n, bits) for n in (4, 6, 8) for bits in (96, 256)]
    cases.append((10, 256))
    for n, bits in cases:
        p = pr.act(rand_unimodular(rng, n, ops=12), rand_pencil(rng, n, 3))
        G, s = rationalize_gram(pr.reduction_covariant(p, bits), bits)
        for delta in (0.99, 0.75, 0.51) if n <= 6 else (0.99,):
            assert lll_gram(G, s, delta).U == lll_gram_reference(G, delta)


def test_lll_gram_returns_its_lattice():
    """The (d, lam) LLL ends in are the Gram-Schmidt data of the reduced
    Gram U G U^T recomputed from scratch on G / s, scaled by s, and
    d_n / s^n is det(G / s)."""
    rng = random.Random(53)
    for bits in (96, 256):
        for n in (4, 6, 8, 10):
            p = pr.act(rand_unimodular(rng, n, ops=12), rand_pencil(rng, n, 3))
            G, s = rationalize_gram(pr.reduction_covariant(p, bits), bits)
            lattice = lll_gram(G, s)
            U, d, lam = lattice.U, lattice.d, lattice.lam
            assert U == lll_gram_reference(G) and lattice.s == s
            G = [[Fraction(x, s) for x in row] for row in G]
            mu, Bs = _gso_fraction(pr.linalg.mat_mul(
                U, pr.linalg.mat_mul(G, pr.linalg.transpose(U))))
            for i in range(n):
                assert Fraction(d[i + 1], s * d[i]) == Bs[i], (n, bits)
                for j in range(i):
                    assert Fraction(lam[i][j], d[j + 1]) == mu[i][j], (n, bits)
            assert Fraction(d[n], s ** n) == pr.linalg.det_exact(G)


def test_lll_gram_rounding_ties():
    # mu exactly +-1/2, 3/2, 5/2, -3/2: round-half-even picks 0, 2, 2, -2
    grams = [_gram_from_ldl([[], [1], [3, -1]], [4, 4, 4]),
             _gram_from_ldl([[], [-1], [5, 3]], [4, 3, 5]),
             _gram_from_ldl([[], [-3], [1, 5], [3, -1, -5]], [8, 8, 8, 8])]
    for G in grams:
        for delta in (0.99, 0.75, 0.51):
            U = lll_gram(*clear_denominators(G), delta).U
            assert U == lll_gram_reference(G, delta)
            Gr = pr.linalg.mat_mul(U, pr.linalg.mat_mul(
                G, pr.linalg.transpose(U)))
            assert is_reduced_oracle(pr.linalg.identity_matrix(len(G)), Gr,
                                     delta)


def test_lll_gram_rejects_bad_input():
    with pytest.raises(ValueError):
        lll_gram([[1, 0], [0, 1]], delta=0.25)
    with pytest.raises(ValueError):
        lll_gram([[1, 2], [2, 1]])


def _exact(x):
    m, e = man_exp(x)
    return Fraction(m) * Fraction(2) ** e


def test_rationalize_gram_matches_nint_reference():
    """The integer rationalization equals mp.nint at bits + 64 bits bit for
    bit: on covariants at 96, 192 and 256 bits, on Grams whose mirrored
    entries are distinct mpf values (their mean is rounded first), on
    entries above 2^64 (more than bits + 64 significant bits) and on exact
    ties of the grid."""
    rng = random.Random(48)
    for n, precision in ((4, 96), (6, 192), (8, 256), (10, 256)):
        H = pr.reduction_covariant(rand_pencil(rng, n, 3), precision)
        g = rand_unimodular(rng, n)
        with mp.workprec(precision + 40):
            M = gram_of_basis(g.entries, H)
            big = gram_from_mp([[x * mp.mpf(2) ** 90 / 3 for x in row]
                                for row in H.entries], 0)
        skew = gram_from_mp(M, H.error_bound)
        for G in (H, skew, big):
            for bits in (precision, min(precision, 192), 64):
                assert (rationalize_gram(G, bits)
                        == rationalize_gram_reference(G, bits))
    ties = gram_from_mp(((mp.mpf(2.5), mp.mpf(-1.5)),
                         (mp.mpf(-1.5), mp.mpf(3.5))), 0)
    assert rationalize_gram(ties, 0) == rationalize_gram_reference(ties, 0) \
        == (((2, -2), (-2, 4)), 1)


def test_rationalize_tiny_scale_gram():
    """A Gram scaled by 2^-200 keeps its bits: the grid is relative to
    max |H_ij| when that is below 1, so shortest_vector and
    iwasawa_coordinates at precision 256 agree with the unscaled Gram."""
    T = [[5, 2, 0, 0], [2, 7, -3, 0], [0, -3, 6, 1], [0, 0, 1, 9]]
    H = gram_from_mp(T, 0)
    tiny = gram_from_mp([[mp.ldexp(x, -200) for x in row]
                         for row in H.entries], 0)
    assert rationalize_gram(tiny, 192) == (tuple(map(tuple, T)), 2 ** 200)
    v, norm = pr.shortest_vector(H, 256)
    vt, norm_t = pr.shortest_vector(tiny, 256)
    assert vt == v and mp.ldexp(norm_t, 200) == norm
    assert (pr.iwasawa_coordinates(tiny, precision=256)
            == pr.iwasawa_coordinates(H, precision=256))


def test_rebase_gram_is_exact():
    """U H U^T is computed exactly: each entry equals the Fraction product
    of the integer rows and the exact dyadic entries of H, which carry more
    bits than precision + 32."""
    rng = random.Random(49)
    for n in (4, 8):
        H = pr.reduction_covariant(rand_pencil(rng, n, 3), 256)
        U = rand_unimodular(rng, n, ops=12, coeff=40).entries
        Hr = rebase_gram(H, U)
        Q = [[_exact(x) for x in row] for row in H.entries]
        for i in range(n):
            for j in range(n):
                assert _exact(Hr.entries[i][j]) == sum(
                    U[i][a] * Q[a][b] * U[j][b]
                    for a in range(n) for b in range(n))


def test_rebase_gram_error_bound():
    H = gram_from_mp(((2, 1), (1, 3)), mp.mpf(2) ** -100)
    for size in (1, 3, 10, 1000):
        U = [[1, size], [0, 1]]
        Hr = rebase_gram(H, U)
        assert Hr.error_bound == H.error_bound * 4 * size ** 2
        with mp.workprec(160):
            assert Hr.entries[0][0] == 2 + 2 * size + 3 * size ** 2
            assert Hr.entries[0][1] == 1 + 3 * size
        assert Hr.M[1][0] == Hr.M[0][1]


def test_enumerate_minima_matches_fraction_reference():
    """The integer Fincke-Pohst returns the minimum and the minimizer set of
    the Fraction enumeration, on the reduced and on the standard basis of
    seeded covariants (n = 4..10), planted Grams and Grams with ties: the
    identity, diagonals with repeated entries and a Gram scaled by
    2^-200."""
    rng = random.Random(54)
    T = [[5, 2, 0, 0], [2, 7, -3, 0], [0, -3, 6, 1], [0, 0, 1, 9]]
    grams = [pr.reduction_covariant(rand_pencil(rng, n, 3), bits)
             for n in (4, 6, 8, 10) for bits in (96, 256) for _ in range(2)]
    grams += [planted_gram(rng, n, mp.mpf(1) / rng.randint(2, 40))
              for n in (2, 4, 6, 8) for _ in range(3)]
    grams += [gram_identity(n) for n in (1, 2, 4, 6)]
    grams += [gram_diag(vals) for vals in ((2, 2, 3, 3), (5, 1, 1, 5, 1),
                                           (7, 7, 7, 7, 7, 7))]
    grams.append(gram_from_mp([[mp.ldexp(x, -200) for x in row] for row in T],
                              0))
    for H in grams:
        G, s = exact_gram(H, 256)
        for lattice in (lll_gram(G, s), Lattice.standard(G, s)):
            Q = pr.linalg.gram(lattice.U, G)
            N, minima = _enumerate_minima(lattice.d, lattice.lam, Q)
            N_ref, minima_ref = enumerate_minima_reference(lattice.d,
                                                           lattice.lam)
            assert N == N_ref and set(minima) == set(minima_ref), H.n
            assert len(minima) == len(set(minima))


def test_form_norm_is_exact():
    """form_norm is the exact Fraction v^T H v rounded once to
    precision + 32 bits: within half an ulp, and equal to it when that fits
    in precision + 32 bits."""
    rng = random.Random(55)
    for n, precision in ((4, 96), (6, 128), (8, 256)):
        H = pr.reduction_covariant(rand_pencil(rng, n, 3), precision)
        Q = [[_exact(x) for x in row] for row in H.entries]
        for k in range(6):
            v = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) if k % 2
                 else rng.randint(-5, 5) for _ in range(n)]
            exact = sum(v[i] * Q[i][j] * v[j]
                        for i in range(n) for j in range(n))
            got = form_norm(H, v, precision)
            assert abs(_exact(got) - exact) <= \
                abs(exact) * Fraction(1, 2 ** (precision + 32)), (n, k)
            if exact.denominator & (exact.denominator - 1) == 0 and \
                    abs(exact.numerator).bit_length() <= precision + 32:
                assert _exact(got) == exact
    H = gram_diag((2, 3, 1, 1))
    assert form_norm(H, [Fraction(1, 2), 1, 0, -2]) == 7.5


def test_shortest_vector_examples():
    v, norm = pr.shortest_vector(gram_diag((2, 3, 1, 1)))
    assert v == (0, 0, 1, 0)
    assert abs(norm - 1) < 1e-25
    v, norm = pr.shortest_vector(gram_identity())
    assert v == (1, 0, 0, 0)
    assert abs(norm - 1) < 1e-25


def test_shortest_vector_bounded_by_diagonal():
    rng = random.Random(45)
    with mp.workprec(160):
        for _ in range(15):
            g = rand_unimodular(rng, 4)
            hinv = [list(r) for r in g.inverse().entries]
            Hm = mp.matrix(hinv).T * mp.matrix(hinv)
            H = gram_from_mp(Hm, mp.mpf(2) ** -120)
            v, norm = pr.shortest_vector(H)
            assert any(v)
            assert norm <= min(H.entries[i][i] for i in range(4)) * (1 + 1e-20)


def test_shortest_vector_planted():
    rng = random.Random(46)
    for _ in range(10):
        s = mp.mpf(1) / rng.randint(7, 40)
        H = planted_gram(rng, 4, s)
        v, norm = pr.shortest_vector(H)
        with mp.workprec(160):
            assert abs(norm - s ** 2) < 1e-20


def test_dimension_cap():
    """Both enumerations, the shortest vector and the eps-small test,
    stop at n = 13."""
    with pytest.raises(pr.DimensionTooLarge):
        pr.shortest_vector(gram_identity(13))
    with pytest.raises(pr.DimensionTooLarge):
        pr.epsilon_small_test(gram_identity(13), 0.5)


def test_epsilon_small_examples():
    H = gram_diag((2, 3, 1, 1))
    assert pr.epsilon_small_test(H, 0.8) is True
    assert pr.epsilon_small_test(H, 0.7) is False
    assert pr.epsilon_small_test(gram_identity(), 1) is False


def test_epsilon_small_scale_invariance():
    rng = random.Random(47)
    with mp.workprec(160):
        for _ in range(8):
            s = mp.mpf(1) / rng.randint(5, 30)
            H = planted_gram(rng, 4, s)
            for lam in (mp.mpf(3), mp.mpf(1) / 7):
                Hs = gram_from_mp([[lam * x for x in row]
                                   for row in H.entries], H.error_bound * lam)
                for eps in (0.05, 0.3, 0.9):
                    assert pr.epsilon_small_test(H, eps) == \
                        pr.epsilon_small_test(Hs, eps)


def test_iwasawa_identity():
    iw = pr.iwasawa_coordinates(gram_identity())
    with mp.workprec(120):
        assert all(abs(t - 1) < 1e-25 for t in iw.t)
        assert all(abs(x) < 1e-25 for row in iw.nu for x in row)
    assert iw.satisfies_siegel is True


def test_iwasawa_diagonal_ratio():
    H = gram_diag((4, 1, 1, 1))
    iw = pr.iwasawa_coordinates(H)
    with mp.workprec(120):
        prod = mp.mpf(1)
        for t in iw.t:
            prod *= t
        assert abs(prod - 1) < 1e-20
        assert abs(iw.t[0] / iw.t[1] - mp.mpf(1) / 2) < 1e-20
    assert iw.satisfies_siegel is False   # ratio 1/2 below sqrt(3)/2


def test_iwasawa_roundtrip():
    rng = random.Random(48)
    with mp.workprec(160):
        for _ in range(10):
            g = rand_unimodular(rng, 4)
            hinv = [list(r) for r in g.inverse().entries]
            Hm = mp.matrix(hinv).T * mp.diag([1, 2, 3, 4]) * mp.matrix(hinv)
            H = gram_from_mp(Hm, mp.mpf(2) ** -120)
            iw = pr.iwasawa_coordinates(H, precision=128)
            n = 4
            N = mp.eye(n)
            for i in range(n):
                for k, j in enumerate(range(i + 1, n)):
                    N[i, j] = iw.nu[i][k]
            T = mp.diag(list(iw.t))
            g2 = N * T
            H1 = (g2 * g2.T) ** -1
            d = mp.det(Hm)
            target = Hm / d ** (mp.mpf(1) / n)
            diff = max(abs(H1[i, j] - target[i, j])
                       for i in range(n) for j in range(n))
            assert diff < 1e-18


def test_iwasawa_matches_reference():
    """t and nu read from the exact Gram-Schmidt data lie within error_bound
    of the floating-point LDL^T of the index-reversed inverse."""
    rng = random.Random(51)
    for bits in (96, 256):
        for n in (4, 6, 8, 10):
            p = pr.act(rand_unimodular(rng, n, ops=10), rand_pencil(rng, n, 3))
            H = pr.reduction_covariant(p, bits)
            iw = pr.iwasawa_coordinates(H, precision=bits)
            t_ref, nu_ref = iwasawa_reference(H, bits)
            with mp.workprec(bits + 32):
                for x, y in zip(iw.t, t_ref):
                    assert abs(x - y) <= H.error_bound * y, (n, bits)
                for row, row_ref in zip(iw.nu, nu_ref):
                    for x, y in zip(row, row_ref):
                        assert abs(x - y) <= H.error_bound * max(1, abs(y))
                assert iw.satisfies_siegel == all(
                    t_ref[i] / t_ref[i + 1] > iw.c for i in range(n - 1))


def test_reference_t1_is_det_over_first_norm():
    """t_1 of the basis g is det(H)^(1/2n) / |g_1|_H for every unimodular g,
    which lets the cusp test read t_1 from a shortest vector alone."""
    rng = random.Random(52)
    for n in (2, 4, 6, 8):
        H = pr.reduction_covariant(rand_pencil(rng, n, 3), 128)
        for _ in range(3):
            g = rand_unimodular(rng, n, ops=10)
            with mp.workprec(160):
                Hg = gram_from_mp(gram_of_basis(g.entries, H), H.error_bound)
            t, _ = iwasawa_reference(Hg, 128)
            with mp.workprec(160):
                det = mp.det(mp_matrix_of(Hg.entries))
                t1 = det ** (mp.mpf(1) / (2 * n)) / mp.sqrt(Hg.entries[0][0])
                assert abs(t[0] - t1) <= mp.mpf(10) ** -30 * t1


def test_iroot_is_the_floor_root():
    """_iroot(x, k) is the r with r^k <= x < (r + 1)^k, at every k the
    lattice scalars use and at exact powers and their neighbours."""
    rng = random.Random(54)
    for k in range(1, 25):
        for bits in (0, 1, 5, 63, 64, 65, 200, 3000):
            r = rng.getrandbits(bits) if bits else 0
            for x in (r ** k - 1, r ** k, r ** k + 1,
                      rng.getrandbits(bits * k + 1)):
                if x >= 0:
                    y = _iroot(x, k)
                    assert y ** k <= x < (y + 1) ** k, (k, x)


def _wide_gram(rng, n, spread):
    """g^T diag(2^k_i) g for a random unimodular g and k_i <= spread: the
    ratios d_{i+1} / d_i of its leading minors reach 2^(+-spread)."""
    g = rand_unimodular(rng, n, ops=6).entries
    D = [1 << rng.randint(0, spread) for _ in range(n)]
    return [[sum(g[k][i] * D[k] * g[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("precision", (53, 96, 256))
@pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
@settings(deadline=None, max_examples=10, derandomize=True)
@given(seed=st.integers(0, 2 ** 32), spread=st.sampled_from((0, 8, 240)),
       log_s=st.integers(0, 300))
def test_lattice_scalars_match_reference(n, precision, seed, spread, log_s):
    """Lattice.ratio and every t_i of Lattice.iwasawa_t lie within relative
    2^-(precision + 30) of mpmath at 4x the precision, on Grams whose
    minors d_{i+1} / d_i reach 2^(+-240), on a unimodular Gram (d_n = 1)
    with d_2 / d_1 < 2^-220, and on diag(1, 2^250, 1, ...), for the norm
    of a basis vector over a power of two s."""
    rng = random.Random(seed)
    M = 1 << 110
    grams = [_wide_gram(rng, n, spread),
             [[M * M + 1, M] + [0] * (n - 2), [M, 1] + [0] * (n - 2)]
             + [[int(i == j) for j in range(n)] for i in range(2, n)],
             [[int(i == j) << 250 * (i == 1) for j in range(n)]
              for i in range(n)]]
    for G in grams:
        lattice = Lattice.standard(G, 1 << log_s)
        d, s = lattice.d, lattice.s
        k = rng.randrange(n)
        norm = G[k][k]
        t = lattice.iwasawa_t(precision)
        ratio = lattice.ratio(norm, precision)
        with mp.workprec(4 * precision):
            tol = mp.mpf(2) ** -(precision + 30)
            root = mp.mpf(d[n]) ** (mp.mpf(1) / (2 * n))
            for i in range(n):
                ref = root * mp.sqrt(mp.mpf(d[i]) / d[i + 1])
                assert abs(t[i] - ref) <= tol * ref, (i, d)
            ref = det_ratio(mp.mpf(norm) / s, mp.mpf(d[n]) / mp.mpf(s) ** n, n)
            assert abs(ratio - ref) <= tol * ref, d


def test_cusp_membership_examples():
    assert pr.cusp_membership(gram_identity(), 0.1) is False
    T = mp.mpf(100)
    H = gram_diag((T ** 2, 1, 1, 1 / T ** 2))
    assert pr.cusp_membership(H, 0.1) is True


def test_cusp_implication_planted():
    rng = random.Random(49)
    for _ in range(40):
        s = mp.mpf(1) / rng.randint(10, 1000)
        H = planted_gram(rng, 4, s)
        with mp.workprec(160):
            eps = 4 * mp.mpf(s) ** Fraction(3, 4)
        if pr.epsilon_small_test(H, eps):
            assert pr.cusp_membership(H, eps) is True


@settings(deadline=None, max_examples=25, derandomize=True)
@given(n=st.sampled_from((2, 4, 6, 8)), seed=st.integers(0, 2 ** 32 - 1),
       inv_s=st.integers(2, 400),
       lam=st.sampled_from((Fraction(1, 7), Fraction(3), Fraction(1000))),
       eps=st.floats(0.01, 1.0))
def test_prop_shortest_norm_invariance(n, seed, inv_s, lam, eps):
    """On a planted Gram H, its rebasing by a unimodular g and its multiple
    lam*H: the shortest norm is invariant under g and scales by lam, within
    the error bound of each Gram, and the eps-small and cusp verdicts agree."""
    rng = random.Random(seed)
    H = planted_gram(rng, n, mp.mpf(1) / inv_s)
    g = rand_unimodular(rng, n, ops=6)
    Hg = rebase_gram(H, g.entries)
    with mp.workprec(224):
        lam_mp = mp.mpf(lam.numerator) / lam.denominator
        Hs = gram_from_mp([[lam_mp * x for x in row] for row in H.entries],
                          H.error_bound * lam_mp)
    v, norm = pr.shortest_vector(H, 192)
    vg, norm_g = pr.shortest_vector(Hg, 192)
    vs, norm_s = pr.shortest_vector(Hs, 192)
    with mp.workprec(224):
        # v^T H v sums n^2 entries, each within error_bound
        tol = H.error_bound * sum(map(abs, v)) ** 2
        assert abs(norm_g - norm) <= \
            tol + Hg.error_bound * sum(map(abs, vg)) ** 2
        assert abs(norm_s - lam_mp * norm) <= \
            lam_mp * tol + Hs.error_bound * sum(map(abs, vs)) ** 2
        ratio = det_ratio(norm, mp.det(mp_matrix_of(H.entries)), n)
        cusp_threshold = mp.mpf(eps) / mp.mpf(pr.SIEGEL_C) ** (n - 1)
        assume(abs(ratio - eps) > 1e-20)
        assume(abs(ratio - cusp_threshold) > 1e-20)
    for tested in (pr.epsilon_small_test, pr.cusp_membership):
        verdict = tested(H, eps, precision=192)
        assert tested(Hg, eps, precision=192) == verdict
        assert tested(Hs, eps, precision=192) == verdict


def test_stabilizer_order():
    assert pr.stabilizer_order(0, 4) == 4
    assert pr.stabilizer_order(2, 4) == 8
    assert pr.stabilizer_order(1, 6) == 8
    with pytest.raises(pr.RangeError):
        pr.stabilizer_order(3, 4)
    with pytest.raises(pr.RangeError):
        pr.stabilizer_order(0, 5)
