"""Tests of the pencil module: the unimodular action and the invariant form."""

import random

import pytest

import pencilred as pr
from pencilred import linalg
from pencilred.pencil import adjugate_pencil, probe
from helpers import (A0, B0, common_denominator, invariant_form_oracle,
                     rand_pencil, rand_symmetric, rand_unimodular,
                     scaled_pencil)

I4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
DIAG_B = tuple(tuple((2, 3, 0, -1)[i] * int(i == j) for j in range(4))
               for i in range(4))
DIAG_PENCIL = pr.Pencil(4, I4, DIAG_B)

WORKED = pr.Pencil(
    4,
    ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1)),
    ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0)))


def test_pencil_validation():
    with pytest.raises(ValueError):
        pr.Pencil(4, I4, tuple(tuple(int(i == j + 1) for j in range(4))
                               for i in range(4)))
    with pytest.raises(pr.DimensionMismatch):
        pr.Pencil(4, I4[:3], DIAG_B)
    with pytest.raises(ValueError):
        pr.Pencil(3, I4[:3], I4[:3])   # odd n


def test_unimodular_validation():
    with pytest.raises(ValueError):
        pr.UnimodularMatrix(2, ((2, 0), (0, 1)))
    g = pr.UnimodularMatrix(2, ((1, 5), (0, -1)))
    assert g.det == -1
    assert linalg.mat_mul([list(r) for r in g.entries],
                          [list(r) for r in g.inverse().entries]) == \
        linalg.identity_matrix(2)


def test_act_identity():
    g = pr.UnimodularMatrix.identity(4)
    assert pr.act(g, DIAG_PENCIL) == DIAG_PENCIL


def test_act_composition():
    rng = random.Random(21)
    for _ in range(25):
        p = rand_pencil(rng, 4, 3, nondegenerate=False)
        g = rand_unimodular(rng, 4)
        h = rand_unimodular(rng, 4)
        gh = pr.UnimodularMatrix(4, tuple(tuple(r) for r in linalg.mat_mul(
            [list(r) for r in g.entries], [list(r) for r in h.entries])))
        assert pr.act(g, pr.act(h, p)) == pr.act(gh, p)


def test_act_sign_fixes_diagonal():
    g = pr.UnimodularMatrix(4, ((-1, 0, 0, 0), (0, 1, 0, 0),
                                (0, 0, 1, 0), (0, 0, 0, 1)))
    assert pr.act(g, DIAG_PENCIL) == DIAG_PENCIL


def test_invariant_form_diagonal():
    # (-1)^6 prod(x - b_i y) = x(x-2y)(x-3y)(x+y)
    f = pr.invariant_form(DIAG_PENCIL)
    expected = pr.form_from_linear_factors([(1, 2), (1, 3), (1, 0), (1, -1)])
    assert f == expected
    assert f.coeffs == (1, -4, 1, 6, 0)


def test_invariant_form_worked_orbit():
    assert pr.invariant_form(WORKED).coeffs == (1, 0, 0, 0, 1)
    assert invariant_form_oracle(WORKED).coeffs == (1, 0, 0, 0, 1)


def test_invariant_form_matches_cofactor_oracle():
    rng = random.Random(22)
    for _ in range(50):
        p = rand_pencil(rng, 4, 4, nondegenerate=False)
        assert pr.invariant_form(p) == invariant_form_oracle(p)


def test_invariance_under_action():
    rng = random.Random(23)
    for _ in range(500):
        p = rand_pencil(rng, 4, 5, nondegenerate=False)
        g = rand_unimodular(rng, 4)
        q = pr.act(g, p)
        assert all(linalg.is_symmetric(M) for M in (q.A, q.B))
        assert pr.invariant_form(q) == pr.invariant_form(p)


def test_invariance_detminus1():
    rng = random.Random(24)
    for _ in range(20):
        p = rand_pencil(rng, 4, 3, nondegenerate=False)
        while True:
            g = rand_unimodular(rng, 4)
            if g.det == -1:
                break
        assert pr.invariant_form(pr.act(g, p)) == pr.invariant_form(p)


def test_pencil_discriminant():
    assert pr.pencil_discriminant(DIAG_PENCIL) != 0
    same = pr.Pencil(4, I4, I4)
    assert pr.pencil_discriminant(same) == 0
    rng = random.Random(25)
    for _ in range(20):
        p = rand_pencil(rng, 4, 3, nondegenerate=False)
        g = rand_unimodular(rng, 4)
        assert pr.pencil_discriminant(pr.act(g, p)) == pr.pencil_discriminant(p)


def test_invariant_form_n6():
    rng = random.Random(26)
    for _ in range(5):
        p = rand_pencil(rng, 6, 2, nondegenerate=False)
        assert pr.invariant_form(p) == invariant_form_oracle(p)


def test_pencil_json_roundtrip():
    assert pr.Pencil.from_json_dict(WORKED.to_json_dict()) == WORKED


def _with_zero_ends(rng, n):
    """A pencil with f0 = fn = 0: A has a zero last row and column, B a zero
    first row and column, so the node k = 0 is singular; f != 0."""
    while True:
        A, B = ([list(r) for r in rand_symmetric(rng, n, 3)] for _ in "AB")
        for i in range(n):
            A[i][n - 1] = A[n - 1][i] = B[i][0] = B[0][i] = 0
        p = pr.Pencil(n, tuple(map(tuple, A)), tuple(map(tuple, B)))
        if any(pr.invariant_form(p).coeffs):
            return p


def _exact_cases(n):
    """An integral pencil, its rational scaling, an f0 = fn = 0 pencil and,
    at n = 4, a rational scaling of (A0, B0)."""
    rng = random.Random(27 + n)
    p = rand_pencil(rng, n, 3)
    pencils = [p, scaled_pencil(p, 6), _with_zero_ends(rng, n)]
    if n == 4:
        pencils.append(scaled_pencil(pr.Pencil(4, A0, B0), 6))
    return pencils


def _identity(n):
    return tuple(map(tuple, linalg.identity_matrix(n)))


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
def test_adjugate_pencil_exact(n):
    """(kA' - B') sum_t k^t D_t = det(kA' - B') I for (A', B') = a(A, B), at
    integers k that are not interpolation nodes, on integral, rational and
    f0 = fn = 0 pencils; f agrees with the cofactor oracle for n <= 6."""
    pencils = _exact_cases(n)
    for q in pencils:
        f, D = adjugate_pencil(q, _identity(n))
        assert f == pr.invariant_form(q)
        if n <= 6:
            assert f == invariant_form_oracle(q)
        a = common_denominator(q.A + q.B)
        for k in (n + 2, n + 3, n + 4, -n - 2, -n - 3, -n - 4):
            M = [[int(a * (k * x - y)) for x, y in zip(ra, rb)]
                 for ra, rb in zip(q.A, q.B)]
            adj = [[sum(k ** t * Dt[i * n + j] for t, Dt in enumerate(D))
                    for j in range(n)] for i in range(n)]
            d = linalg.bareiss(M)[0]
            assert linalg.mat_mul(M, adj) == [[d * (i == j) for j in range(n)]
                                              for i in range(n)]
    assert pr.invariant_form(pencils[2]).coeffs[::n] == (0, 0)


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
def test_column_pencil_exact(n):
    """The default pass is the column W = probe(n) = w:
    (kA' - B') c(k) = det(kA' - B') w for c(k) = sum_t k^t D_t and
    (A', B') = a(A, B), at integers k that are not interpolation nodes, on
    the pencils of test_adjugate_pencil_exact; its f is the invariant form,
    and its D is the whole adjugate pencil's times w."""
    w = probe(n)
    assert len({x for x, in w}) == n and all(0 < x < 2 ** 61 for x, in w)
    for q in _exact_cases(n):
        f, D = adjugate_pencil(q)
        assert f == pr.invariant_form(q)
        _, full = adjugate_pencil(q, _identity(n))
        assert D == tuple(tuple(linalg.mat_vec([Dt[i * n:(i + 1) * n]
                                                for i in range(n)],
                                               [x for x, in w]))
                          for Dt in full)
        a = common_denominator(q.A + q.B)
        for k in (n + 2, n + 3, n + 4, -n - 2, -n - 3, -n - 4):
            M = [[int(a * (k * x - y)) for x, y in zip(ra, rb)]
                 for ra, rb in zip(q.A, q.B)]
            c = [sum(k ** t * Dt[i] for t, Dt in enumerate(D))
                 for i in range(n)]
            d = linalg.bareiss(M)[0]
            assert linalg.mat_vec(M, c) == [d * x for x, in w]


def test_invariant_form_identically_zero():
    """A common kernel vector makes f = 0; the pass stops after n + 1
    singular nodes and has no adjugate pencil."""
    A = tuple(tuple(int(i == j < 3) for j in range(4)) for i in range(4))
    p = pr.Pencil(4, A, DIAG_B[:3] + ((0, 0, 0, 0),))
    f, D = adjugate_pencil(p)
    assert f == invariant_form_oracle(p) == pr.BinaryForm(4, (0,) * 5)
    assert D is None
    assert adjugate_pencil(p, _identity(4)) == (f, None)
    assert pr.invariant_form(p) == f
