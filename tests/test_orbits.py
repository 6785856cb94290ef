"""Tests of orbit construction: algebra arithmetic, pencils from data,
divisor data, integralization, the norm-of-one formula."""

import heapq
import math
import random
import time
from fractions import Fraction
from itertools import islice, product
from types import SimpleNamespace

import mpmath as mp
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import pencilred as pr
from pencilred import linalg, orbits, polys
import helpers
from helpers import (A0, B0, _grow_candidates_reference, form_mul,
                     integralize_reference, kernel_mod_reference,
                     mp_matrix_of, norm_of_one_reference,
                     orbit_pencil_reference, rand_monic_form,
                     rand_pencil, rand_point_divisor, rand_symmetric,
                     rand_unimodular, rand_valid_datum, row_hnf_reference,
                     scaled_pencil)

X4Y4 = pr.BinaryForm(4, (1, 0, 0, 0, 1))
X4_3Y4 = pr.BinaryForm(4, (1, 0, 0, 0, 3))

# S·(A0, B0)·S with S = diag(1/6, 6, 1, 1): Gram denominators 4 and 9
P0 = pr.Pencil(4, A0, B0)
S_PENCIL = scaled_pencil(P0, 6)

# recomputed at 60 digits from the radical closed form of the roots of X^4+3
NORM_ONE_X43_STR = "0.88807383397711526216076459641812180401171719019895"


def test_tau_examples():
    X = pr.generator(X4Y4)
    assert pr.tau_functional(X ** 3) == 1
    assert pr.tau_functional(X ** 4) == 0            # X^4 = -1
    assert (X ** 4).coeffs == (-1, 0, 0, 0)
    assert pr.tau_functional(X ** 7) == -1           # X^7 = -X^3


def test_norm_examples():
    X = pr.generator(X4Y4)
    assert pr.norm(X) == 1
    Y = pr.generator(X4_3Y4)
    onee = pr.one(X4_3Y4)
    assert pr.norm(Y - onee) == 4                    # f(1,1)/f0
    assert pr.norm(onee) == 1


def test_norm_resultant_oracle():
    rng = random.Random(51)
    for _ in range(20):
        f = rand_monic_form(rng, 4)
        a = rng.randint(-4, 4)
        X = pr.generator(f)
        # N(X - a) = prod (omega_j - a) = f(a, 1)/f0 for even degree
        assert pr.norm(X - a * pr.one(f)) == Fraction(f(a, 1), f.coeffs[0])


def test_validate_datum_examples():
    X = pr.generator(X4Y4)
    assert pr.validate_datum(pr.OrbitDatum(X4Y4, X, Fraction(1)))
    Y = pr.generator(X4_3Y4)
    alpha = Y - pr.one(X4_3Y4)
    assert pr.validate_datum(pr.OrbitDatum(X4_3Y4, alpha, Fraction(1, 2)))
    assert not pr.validate_datum(pr.OrbitDatum(X4Y4, X, Fraction(2)))


def test_pencil_from_datum_worked():
    d = pr.OrbitDatum(X4Y4, pr.generator(X4Y4), Fraction(1))
    p, one_bar = pr.pencil_from_datum(d)
    assert p.A == ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1))
    assert p.B == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0))
    assert one_bar == (1, 0, 0, 0)
    assert pr.invariant_form(p) == X4Y4


def test_pencil_from_datum_quadratic_oracle():
    rng = random.Random(52)
    for _ in range(10):
        f1, f2 = rng.randint(-5, 5), rng.randint(-5, 5)
        f = pr.BinaryForm(2, (1, f1, f2))
        if pr.discriminant(f) == 0:
            continue
        d = pr.OrbitDatum(f, pr.one(f), Fraction(1))
        p, _ = pr.pencil_from_datum(d)
        assert p.A == ((0, 1), (1, -f1))
        assert p.B == ((1, -f1), (-f1, f1 * f1 - f2))
        assert pr.invariant_form(p) == f


def test_pencil_from_datum_rejects_invalid():
    with pytest.raises(pr.InvalidDatum):
        pr.pencil_from_datum(pr.OrbitDatum(X4Y4, pr.generator(X4Y4),
                                           Fraction(2)))


def test_round_trip_random_data():
    rng = random.Random(53)
    for n, count in ((4, 30), (6, 10)):
        for _ in range(count):
            f = rand_monic_form(rng, n)
            d = rand_valid_datum(rng, f)
            p, one_bar = pr.pencil_from_datum(d)
            assert pr.invariant_form(p) == f
            assert one_bar[0] == 1 / d.z
            assert all(x == 0 for x in one_bar[1:])


def test_equivalent_data_conjugate_pencils():
    rng = random.Random(54)
    done = 0
    while done < 10:
        f = rand_monic_form(rng, 4)
        d = rand_valid_datum(rng, f)
        beta = pr.element_from_poly(
            f, [rng.randint(-2, 2) for _ in range(4)])
        nb = pr.norm(beta)
        if nb == 0:
            continue
        d2 = pr.OrbitDatum(f, beta * beta * d.alpha, d.z / nb)
        p1, _ = pr.pencil_from_datum(d)
        p2, _ = pr.pencil_from_datum(d2)
        # T = S_z^-1 M_beta S_z', det 1, with T^T A T = A'
        n = 4
        Mb = beta.multiplication_matrix()
        T = [[Fraction(Mb[i][j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            T[i][0] *= d2.z
        for j in range(n):
            T[0][j] /= d.z
        assert linalg.det_exact(T) == 1
        assert linalg.gram(linalg.transpose(T), p1.A) == p2.A
        assert linalg.gram(linalg.transpose(T), p1.B) == p2.B
        # covariants are congruent under the same T
        H1 = pr.reduction_covariant(p1, 128)
        H2 = pr.reduction_covariant(p2, 128)
        with mp.workprec(160):
            Tm = mp_matrix_of(T)
            lhs = Tm.T * mp_matrix_of(H1.entries) * Tm
            scale = max(abs(x) for row in H2.entries for x in row)
            diff = max(abs(lhs[i, j] - H2.entries[i][j])
                       for i in range(4) for j in range(4))
            assert diff <= 1e-18 * max(scale, 1)
        done += 1


def test_datum_from_divisor_examples():
    ds = pr.DivisorSpec(X4Y4, pr.BinaryForm(1, (1, 0)), Fraction(1))
    d = pr.datum_from_divisor(ds)
    assert d.alpha.coeffs == (0, 1, 0, 0) and d.z == 1

    ds2 = pr.DivisorSpec(X4_3Y4, pr.BinaryForm(1, (1, -1)), Fraction(2))
    d2 = pr.datum_from_divisor(ds2)
    assert d2.alpha.coeffs == (-1, 1, 0, 0) and d2.z == Fraction(1, 2)
    assert pr.validate_datum(d2)


def test_datum_from_divisor_weierstrass():
    # U sharing a linear factor with a split quartic
    f = pr.form_from_linear_factors([(1, 2), (1, 3), (1, 1), (1, -1)])
    ds = pr.DivisorSpec(f, pr.BinaryForm(1, (1, -2)), Fraction(1))
    with pytest.raises(pr.DivisorMeetsWeierstrass):
        pr.datum_from_divisor(ds)


def test_datum_from_divisor_inconsistent_w():
    ds = pr.DivisorSpec(X4_3Y4, pr.BinaryForm(1, (1, -1)), Fraction(3))
    with pytest.raises(pr.InconsistentW):
        pr.datum_from_divisor(ds)


def test_datum_from_divisor_validity_random():
    rng = random.Random(55)
    for _ in range(40):
        ds = rand_point_divisor(rng)
        assert pr.validate_datum(pr.datum_from_divisor(ds))



def _norm_by_resultant(f, U):
    """(N(U(X,1) mod f(X,1)), U(X,1)) with N = Res(f(X,1), U(X,1))/f0^deg U,
    from sympy; f and U are descending integer coefficients."""
    x = sympy.Symbol("x")
    F, P = sympy.Poly(f, x), sympy.Poly(U, x)
    N = Fraction(int(sympy.resultant(F, P))) / Fraction(f[0]) ** P.degree()
    return N, P


def _weierstrass_oracle(ds):
    """(exception type, message) that datum_from_divisor must raise, or
    None: sympy's gcd of f(X,1) and U(X,1) first, then the norm equation
    z^2 N = f0^(n+1)."""
    f, U = [int(c) for c in ds.f.coeffs], [int(c) for c in ds.U.coeffs]
    N, P = _norm_by_resultant(f, U)
    if sympy.gcd(sympy.Poly(f, P.gen), P).degree() > 0:
        return pr.DivisorMeetsWeierstrass, "U shares a factor with f"
    n, f0 = ds.f.degree, Fraction(f[0])
    z = f0 ** (n - 1) / (Fraction(int(P.LC())) ** (ds.genus + 1) * ds.w)
    if z * z * N != f0 ** (n + 1):
        return pr.InconsistentW, "w is inconsistent with U on the curve"
    return None


def _pmul(a, b):
    """Product of two descending coefficient lists."""
    a, b = (pr.BinaryForm(len(c) - 1, tuple(c)) for c in (a, b))
    return list(form_mul(a, b).coeffs)


@settings(deadline=None, max_examples=240, derandomize=True)
@given(n=st.sampled_from((4, 6, 8)),
       case=st.sampled_from(("shared", "consistent", "wrong")),
       shape=st.sampled_from(("full", "infinity", "constant")),
       shared=st.integers(1, 2), lead=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from((2, 3, Fraction(1, 2))))
def test_weierstrass_check_reads_the_norm(n, case, shape, shared, lead, seed,
                                          scale):
    """datum_from_divisor tells a divisor meeting a Weierstrass point (U
    sharing a linear or quadratic factor with f) from a wrong w by the
    norm alone, with the type and message of a gcd-then-norm oracle.  U
    may have a root at infinity (zero leading coefficient) or be constant
    in X; w is the consistent one or a multiple of it."""
    rng = random.Random(seed)
    cs, more = ([rng.randint(-5, 5) for _ in range(10)] for _ in range(2))
    k = n - 3                        # deg U = 2g - 1
    if case == "shared" and shape != "constant":
        L = [lead, cs[k] or 1] + more[:min(shared, k) - 1]
        m = [int(shape == "full")] + cs[:k + 1 - len(L)]
        m[-1] = m[-1] or 1
        U = _pmul(L, m)
        f = _pmul(L, [lead] + more[1:n + 2 - len(L)])
        w = Fraction(more[-1] or 1)
    else:
        if shape == "constant":
            U = [0] * k + [1]
        else:
            U = [lead * (shape == "full")] + cs[:k - 1] + [cs[k - 1] or 1]
        # f = U V + W^2: each root of U(X,1) lies under a rational point,
        # and z^2 N = f0^(n+1) has a rational solution w
        V = [more[0] or 1] + more[1:4]
        W = [lead] + more[4:4 + n // 2]
        f = [a + b for a, b in zip(_pmul(U, V), _pmul(W, W))]
        if f[0] == 0:
            return
        N, P = _norm_by_resultant(f, U)
        w2 = Fraction(f[0]) ** (n - 3) * N / Fraction(int(P.LC())) ** n
        w = Fraction(math.isqrt(w2.numerator), math.isqrt(w2.denominator))
        assert w * w == w2
        w = (w or 1) * (scale if case == "wrong" else 1)
    c = polys.content(U)
    ds = pr.DivisorSpec(pr.BinaryForm(n, tuple(f)),
                        pr.BinaryForm(k, tuple(x // c for x in U)), w)
    expected = _weierstrass_oracle(ds)
    try:
        d = pr.datum_from_divisor(ds)
    except (pr.DivisorMeetsWeierstrass, pr.InconsistentW) as exc:
        assert (type(exc), str(exc)) == expected
    else:
        assert expected is None and pr.validate_datum(d)


def test_lf_arithmetic_against_sympy():
    """Every L_f operation against sympy's remainder over Q, on non-monic
    f with f0 in {1, 2, 3, -5}, n = 2..8: classes of polynomials of any
    length, sums, differences, products, cubes, multiplication matrices,
    norms as resultants Res(F, a)/f0^deg(a), and the Hankel pencil of a
    valid datum (even n)."""
    x = sympy.Symbol("x")

    def poly(ascending):
        return sympy.Poly(list(reversed(ascending)) or [0], x, domain="QQ")

    def coords(P, n):
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(P.all_coeffs())]
        return tuple(cs + [Fraction(0)] * (n - len(cs)))

    def sympy_norm(F, P, f0):
        if P.is_zero:
            return Fraction(0)
        r = sympy.resultant(F, P) / sympy.Integer(f0) ** P.degree()
        return Fraction(int(r.p), int(r.q))

    rng = random.Random(58)
    for n in range(2, 9):
        for f0 in (1, 2, 3, -5):
            while True:
                cs = [f0] + [rng.randint(-4, 4) for _ in range(n)]
                if n % 2 == 0:       # f_n = s^2 makes N(X) = s^2/f0
                    s = rng.randint(1, 3)
                    cs[-1] = s * s
                f = pr.BinaryForm(n, tuple(cs))
                if pr.discriminant(f) != 0:
                    break
            F = sympy.Poly(cs, x, domain="QQ")
            samples = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                       for _ in range(rng.randint(0, 2 * n + 2))]
                      for _ in range(4)]
            for P in samples:
                a = pr.element_from_poly(f, P)
                Pa = sympy.rem(poly(P), F)
                assert a.coeffs == coords(Pa, n), (f, P)
                Q = [rng.randint(-3, 3) for _ in range(n)]
                b = pr.element_from_poly(f, Q)
                assert (a * b).coeffs == coords(
                    sympy.rem(poly(P) * poly(Q), F), n)
                assert (a + b).coeffs == coords(
                    sympy.rem(poly(P) + poly(Q), F), n)
                assert (a - b).coeffs == coords(
                    sympy.rem(poly(P) - poly(Q), F), n)
                assert (a ** 3).coeffs == coords(sympy.rem(poly(P) ** 3, F), n)
                M = a.multiplication_matrix()
                for j in range(n):
                    col = tuple(M[i][j] for i in range(n))
                    assert col == coords(sympy.rem(Pa * x ** j, F), n)
                assert pr.norm(a) == sympy_norm(F, Pa, f0)
            if n % 2:
                continue
            # alpha = X beta^2, z = f0^(n/2+1)/(s N(beta)): z^2 N(alpha) =
            # f0^(n+1), with alpha and N(beta) taken from sympy
            while True:
                Pb = poly([rng.randint(-2, 2) for _ in range(n)])
                nb = sympy_norm(F, Pb, f0)
                if nb:
                    break
            Palpha = sympy.rem(x * Pb ** 2, F)
            d = pr.OrbitDatum(f, pr.AlgebraElement(f, coords(Palpha, n)),
                              Fraction(f0) ** (n // 2 + 1) / (s * nb))
            p, one_bar = pr.pencil_from_datum(d)
            t = [coords(sympy.rem(Palpha * x ** k, F), n)[-1] / f0
                 for k in range(2 * n)]
            for i in range(n):
                for j in range(n):
                    scale = d.z ** ((i == 0) + (j == 0))
                    assert p.A[i][j] == scale * t[i + j]
                    assert p.B[i][j] == scale * t[i + j + 1]
            assert one_bar == (1 / d.z,) + (0,) * (n - 1)


def test_orbit_pencil_form_is_norm_multiple_of_f():
    """The Hankel pencil of (alpha, z) has invariant form exactly
    z^2 N(alpha) / f0^(n+1) * f, valid datum or not, for n in {2, 4, 6, 8}
    and f0 in {1, 2, 3, -5}.  So pencil_from_datum's comparison of that
    form with f is the norm equation: it returns the pencil of every datum
    that satisfies it and raises InvalidDatum on every other one."""
    rng = random.Random(59)
    for n in (2, 4, 6, 8):
        for f0 in (1, 2, 3, -5):
            s = rng.randint(1, 3)
            while True:      # f_n = s^2 makes N(X) = s^2/f0
                f = pr.BinaryForm(n, (f0,) + tuple(
                    rng.randint(-4, 4) for _ in range(n - 1)) + (s * s,))
                if pr.discriminant(f) != 0:
                    break
            while True:
                beta = pr.element_from_poly(
                    f, [rng.randint(-2, 2) for _ in range(n)])
                if pr.norm(beta) != 0:
                    break
            # alpha = X beta^2, z = f0^(n/2+1)/(s N(beta)): z^2 N(alpha) =
            # f0^(n+1); 2z, z/3 and a random alpha break the equation
            alpha = pr.generator(f) * beta * beta
            z = Fraction(f0) ** (n // 2 + 1) / (s * pr.norm(beta))
            other = pr.element_from_poly(
                f, [rng.randint(-3, 3) for _ in range(n)])
            data = [pr.OrbitDatum(f, alpha, z),
                    pr.OrbitDatum(f, alpha, 2 * z),
                    pr.OrbitDatum(f, alpha, z / 3),
                    pr.OrbitDatum(f, other, z)]
            for d in data:
                scale = d.z ** 2 * pr.norm(d.alpha) / Fraction(f0) ** (n + 1)
                p = orbit_pencil_reference(d)
                assert pr.invariant_form(p) == pr.BinaryForm(
                    n, tuple(scale * c for c in f.coeffs)), (n, f0, d)
                if scale == 1:
                    assert pr.pencil_from_datum(d) == (
                        p, (1 / d.z,) + (0,) * (n - 1))
                else:
                    with pytest.raises(pr.InvalidDatum,
                                       match=r"z\^2 N\(alpha\)"):
                        pr.pencil_from_datum(d)
            assert pr.validate_datum(data[0])


def test_integralize_already_integral():
    d = pr.OrbitDatum(X4Y4, pr.generator(X4Y4), Fraction(1))
    p, _ = pr.pencil_from_datum(d)
    res = pr.integralize(p)
    assert res.pencil == p


def test_integralize_worked_divisor():
    ds = pr.DivisorSpec(X4_3Y4, pr.BinaryForm(1, (1, -1)), Fraction(2))
    p, one_bar = pr.pencil_from_datum(pr.datum_from_divisor(ds))
    assert not p.is_integral
    res = pr.integralize(p)
    assert res.pencil.is_integral
    assert pr.invariant_form(res.pencil) == X4_3Y4
    vec = res.transport(one_bar)
    dens = [Fraction(v).denominator for v in vec]
    assert all(q == 1 for q in dens)
    from math import gcd
    g = 0
    for v in vec:
        g = gcd(g, int(v))
    assert g == 1     # saturated image of the distinguished vector
    # pins the search order: the first covolume-1 state it reaches
    assert res.pencil.A == ((-1, 0, 0, -2), (0, 1, -1, 0), (0, -1, 0, 0),
                            (-2, 0, 0, -3))
    assert res.pencil.B == ((-1, 0, -2, 0), (0, -1, 0, 0), (-2, 0, 0, -3),
                            (0, 0, -3, 3))
    h = Fraction(-1, 2)
    assert res.transform == ((1, 0, 0, 0), (h, 1, 0, 0), (h, 0, 1, 0),
                             (h, 0, 0, 1))


def test_integralize_transform():
    rng = random.Random(57)
    ds0 = pr.DivisorSpec(X4_3Y4, pr.BinaryForm(1, (1, -1)), Fraction(2))
    pencils = [S_PENCIL] + [
        pr.pencil_from_datum(pr.datum_from_divisor(ds))[0]
        for ds in [ds0] + [rand_point_divisor(rng) for _ in range(12)]]
    for p in pencils:
        res = pr.integralize(p)
        R, g = res.pencil, [list(r) for r in res.transform]
        assert R.is_integral
        assert pr.invariant_form(R) == pr.invariant_form(p)
        assert abs(linalg.det_exact(g)) == 1
        # act(g, p) = (g^-T A g^-1, g^-T B g^-1) = R
        assert linalg.gram(linalg.transpose(g), R.A) == p.A
        assert linalg.gram(linalg.transpose(g), R.B) == p.B


def test_shrink_seed_integral():
    # the shrunk Z^4 must pair integrally under both forms; the Gram
    # denominators are 4 and 9, so the shrink needs their lcm, not their max
    a = 36
    A, B = ([[int(a * x) for x in row] for row in M]
            for M in (S_PENCIL.A, S_PENCIL.B))
    ident = linalg.identity_matrix(4)
    K = orbits._shrink_to_integral(
        [linalg.gram(ident, M) for M in (A, B)], a, set())
    for M in (S_PENCIL.A, S_PENCIL.B):
        G = linalg.gram(K, M)
        assert all(Fraction(x).denominator == 1 for row in G for x in row)
    # from the integral seed the search reaches covolume 1 in 5 states
    res = pr.integralize(S_PENCIL, max_states=5)
    assert res.pencil.A == A0


def test_fp_lines_stop_at_cap():
    """The first _LINE_CAP nonzero combinations of the basis in enumeration
    order (leading coefficient 1 first, the tail in lexicographic order),
    returned at once even for a prime near 10^8.  Bases: the identity, the
    F_p kernel of a seeded Gram pair of rank 2 mod p (as `_grow_candidates`
    uses it), random independent bases and, at p = 3, dependent ones."""
    def lines(k, p):
        for lead in range(k):
            # the last coordinate varies fastest, so the first _LINE_CAP
            # lines have every coordinate below _LINE_CAP
            digits = range(min(p, orbits._LINE_CAP))
            for tail in product(digits, repeat=k - lead - 1):
                yield [0] * lead + [1] + list(tail)

    def combinations(basis, p):
        for c in lines(len(basis), p):
            vec = [sum(x * b[j] for x, b in zip(c, basis)) % p
                   for j in range(len(basis[0]))]
            if any(vec):
                yield vec

    def rank(basis, p):
        return len(basis) - len(linalg.fp_nullspace(linalg.transpose(basis),
                                                    p))

    rng = random.Random(365)
    cases = [(linalg.identity_matrix(k), p) for k, p in
             ((4, 3), (2, 7), (4, 999983), (4, 10 ** 8 + 7))]
    for p in (3, 7, 999983, 10 ** 8 + 7):
        C = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(6)]
        GA, GB = ([[x + p * y for x, y in zip(r, rr)] for r, rr in zip(
            linalg.gram(C, rand_symmetric(rng, 2, 9)),
            rand_symmetric(rng, 6, 9))] for _ in range(2))
        cases.append((linalg.fp_nullspace(GA + GB, p), p))
        for k in (2, 3, 4):
            while True:
                basis = [[rng.randint(-2 * p, 2 * p) for _ in range(5)]
                         for _ in range(k)]
                if rank(basis, p) == k:
                    break
            cases.append((basis, p))
    for _ in range(3):
        basis = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(2)]
        cases.append((basis + [[x - 2 * y for x, y in zip(*basis)]], 3))
    for basis, p in cases:
        start = time.perf_counter()
        out = orbits._fp_lines(basis, p)
        assert time.perf_counter() - start < 0.5
        assert out == list(islice(combinations(basis, p),
                                  orbits._LINE_CAP)), (basis, p)


def test_integralize_prime_denominator():
    # a = 999983^2, a prime below 10^6: the search grows back to (A0, B0)
    res = pr.integralize(scaled_pencil(P0, 999983))
    assert (res.pencil.A, res.pencil.B) == (A0, B0)


def test_integralize_factors_each_modulus_once(monkeypatch):
    """One search factors each distinct denominator and covolume once, and
    only after dividing out the primes it has already found; the index-p
    sublattices reuse the prime they come from."""
    calls = []
    found = set()
    factor_trial = polys.factor_trial

    def counting(m):
        assert not any(m % q == 0 for q in found), (m, found)
        calls.append(m)
        out = factor_trial(m)
        found.update(out)
        return out

    monkeypatch.setattr(polys, "factor_trial", counting)
    res = pr.integralize(scaled_pencil(P0, 999983))
    assert (res.pencil.A, res.pencil.B) == (A0, B0)
    S = [Fraction(1, 999983), Fraction(999983), 1, 1]
    assert res.transform == tuple(tuple(S[i] if i == j else 0
                                        for j in range(4)) for i in range(4))
    assert calls and len(calls) == len(set(calls))


def test_integralize_keys_each_lattice_when_pushed(monkeypatch):
    """A lattice is keyed (HNF and repeat check) once, when it is pushed:
    _lattice_key runs once per seed and per candidate child, each heap
    entry carries the key computed just before it, and no key enters the
    heap twice, so a repeat is dropped before it reaches the heap (on some
    searches there are repeats).  A child's Grams come from its parent's,
    so linalg.gram runs only for the seeds (and for sublattice children,
    of which these searches have none)."""
    events, grams, children, sublattices = [], [], [], []
    lattice_key = orbits._lattice_key

    def keying(*args):
        out = lattice_key(*args)
        events.append(("key", out[0]))
        return out

    monkeypatch.setattr(orbits, "_lattice_key", keying)
    gram = linalg.gram
    monkeypatch.setattr(linalg, "gram",
                        lambda *args: grams.append(args) or gram(*args))
    grow_candidates = orbits._grow_candidates

    def growing(*args):
        out = grow_candidates(*args)
        children.extend(out)
        return out

    monkeypatch.setattr(orbits, "_grow_candidates", growing)
    sublattice_candidates = orbits._sublattice_candidates
    monkeypatch.setattr(orbits, "_sublattice_candidates",
                        lambda *args: sublattices.append(args)
                        or sublattice_candidates(*args))

    def heappush(heap, entry):
        events.append(("push", entry[4]))
        heapq.heappush(heap, entry)

    def heappop(heap):
        events.append(("pop", None))
        return heapq.heappop(heap)

    monkeypatch.setattr(orbits, "heapq", SimpleNamespace(
        heappush=heappush, heappop=heappop))
    rng = random.Random(60)
    dropped = grown = 0
    for _ in range(12):
        p = pr.pencil_from_datum(pr.datum_from_divisor(
            rand_point_divisor(rng)))[0]
        for counts in (events, grams, children, sublattices):
            counts.clear()
        pr.integralize(p)
        keys = [k for e, k in events if e == "key"]
        pushed = [k for e, k in events if e == "push"]
        first_pop = (events + [("pop", None)]).index(("pop", None))
        seeds = sum(e == "key" for e, _ in events[:first_pop])
        assert len(keys) == seeds + len(children)
        for i, (e, k) in enumerate(events):
            if e == "push":
                assert events[i - 1] == ("key", k)
            elif e == "key" and events[i + 1:i + 2] != [("push", k)]:
                assert ("push", k) in events[:i]    # a dropped repeat
        assert len(set(pushed)) == len(pushed)
        assert not sublattices
        assert len(grams) <= 2 * seeds
        dropped = max(dropped, len(keys) - len(pushed))
        grown = max(grown, len(keys) - seeds)
    assert dropped > 0 and grown > 0


def _two_primes_pencil():
    """The orbit pencil of f = (4, 3, 0, 1, 9), U = x, w = 3."""
    ds = pr.DivisorSpec(pr.BinaryForm(4, (4, 3, 0, 1, 9)),
                        pr.BinaryForm(1, (1, 0)), Fraction(3))
    return pr.pencil_from_datum(pr.datum_from_divisor(ds))[0]


def test_integralize_two_primes_one_at_a_time():
    """The orbit pencil of f = (4, 3, 0, 1, 9), U = x, w = 3 has Gram
    denominators 2^12 and 3: its search meets two primes.  Expanding each
    state only at the smallest prime of its covolume finishes prime 2
    before it touches prime 3, and finds an integral pencil in 18 states
    (searching the product of the two local state spaces took 750).  The
    result is checked without reference to the order: act(g, p) is the
    returned pencil exactly, |det g| = 1 and the form is unchanged."""
    p = _two_primes_pencil()
    assert {q for M in (p.A, p.B) for row in M for x in row
            for q in (2, 3) if Fraction(x).denominator % q == 0} == {2, 3}
    res = pr.integralize(p, max_states=50)
    R = res.pencil
    assert R.is_integral
    g = sympy.Matrix(res.transform)
    assert abs(g.det()) == 1
    U = [[Fraction(int(x.p), int(x.q)) for x in row]
         for row in g.inv().T.tolist()]
    assert (linalg.gram(U, p.A), linalg.gram(U, p.B)) == (R.A, R.B)
    assert pr.invariant_form(R) == pr.invariant_form(p)


def test_integralize_unfactorable_denominator():
    # a = 1000003^2 has no prime below 10^6: NotFound, not a ValueError
    with pytest.raises(pr.NotFound):
        pr.integralize(scaled_pencil(P0, 1000003))


def _search_outcome(search, p, budget):
    try:
        res = search(p, max_states=budget)
    except pr.NotFound:
        return None
    return res.pencil, res.transform


def _eager_reference_pencils():
    """100 non-integral orbit pencils of rational points, 8 of degree-6
    data and 4 scaled pencils, seeded."""
    rng = random.Random(58)
    pencils = []
    while len(pencils) < 100:
        p = pr.pencil_from_datum(pr.datum_from_divisor(
            rand_point_divisor(rng)))[0]
        if not p.is_integral:
            pencils.append(p)
    pencils += [pr.pencil_from_datum(rand_valid_datum(
        rng, rand_monic_form(rng, 6, 3), 1))[0] for _ in range(8)]
    pencils += [scaled_pencil(rand_pencil(rng, 6), s) for s in (2, 3, 4, 6)]
    return pencils


def test_integralize_matches_eager_reference():
    """Keys and Grams computed when a state is pushed, from its parent's
    HNF and Grams, explore the states of the eager search in the same
    order: the same (pencil, transform), and the same NotFound at every
    budget."""
    outcomes = set()
    for p in _eager_reference_pencils():
        assert not p.is_integral
        for budget in (1, 2, 3, 5, 8, 400):
            got = _search_outcome(pr.integralize, p, budget)
            assert got == _search_outcome(integralize_reference, p, budget)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_overlattice_shift_is_dead():
    """For x in the common kernel of two integral Grams mod p,
    q(x + p·w) = q(x) mod p^2 under both forms, so only x itself can pass
    the p^2 test; the overlattices found (their HNF) equal those of the
    search that also tried the shift."""
    rng = random.Random(59)
    for p in (3, 5, 7):
        for _ in range(6):
            n = rng.randint(3, 5)
            k = rng.randint(1, 2)
            U = [list(r) for r in rand_unimodular(rng, n).entries]
            grams = []
            for _ in range(2):
                # the first k basis vectors pair into pZ with everything
                G0 = [[x * p if i < k or j < k else x
                       for j, x in enumerate(row)]
                      for i, row in enumerate(rand_symmetric(rng, n, 9))]
                grams.append(linalg.gram(linalg.transpose(U), G0))
            GA, GB = grams
            basis = linalg.fp_nullspace(GA + GB, p)
            assert len(basis) >= k
            for cs in product(range(p), repeat=len(basis)):
                x = [sum(c * v[t] for c, v in zip(cs, basis)) % p
                     for t in range(n)]
                w = [rng.randint(-9, 9) for _ in range(n)]
                xw = [a + p * b for a, b in zip(x, w)]
                for G in grams:
                    assert (linalg.quad(G, xw) - linalg.quad(G, x)) \
                        % (p * p) == 0
            H = [[int(i == j) * rng.randint(1, 4) + (j > i) * rng.randint(
                0, 3) for j in range(n)] for i in range(n)]
            assert [row_hnf_reference(B) for B, _ in
                    orbits._grow_candidates(H, GA, GB, p)] == [
                row_hnf_reference(M)
                for M in _grow_candidates_reference(H, GA, GB, p)]


def _update_parents(rng):
    """Seeded parent states (q, d, H, GA, GB, a, A, B): H/d a canonical
    lattice state (H in row HNF, gcd(d, H) = 1) whose Grams H·A·Hᵀ/(a·d^2),
    H·B·Hᵀ/(a·d^2) are the integral GA, GB.  GA and GB share a kernel
    mod q of dimension k >= 1: U·G0·Uᵀ for a unimodular U, with G0 ≡ 0
    mod q on its first k rows and columns and mostly ≡ 0 mod q^2 on the
    k×k block, so some lines pass the q^2 test and some do not."""
    for n in range(2, 7):
        for q in (2, 3, 5, 7, 999983):
            for _ in range(2):
                k = rng.randint(1, n)
                U = rand_unimodular(rng, n).entries
                grams = []
                for _ in range(2):
                    G0 = [list(r) for r in rand_symmetric(rng, n, 9)]
                    for i in range(k):
                        for j in range(i, n):
                            m = q * q if j < k and (
                                i != j or rng.random() < 0.7) else q
                            G0[i][j] *= m
                            G0[j][i] = G0[i][j]
                    grams.append([list(r) for r in linalg.gram(U, G0)])
                GA, GB = grams
                H = [[0] * n for _ in range(n)]
                for i in range(n):
                    H[i][i] = rng.randint(1, 6)
                    for j in range(i):
                        H[j][i] = rng.randrange(H[i][i])
                d = rng.randint(1, 6)
                g = math.gcd(d, *(x for row in H for x in row))
                d, H = d // g, [[x // g for x in row] for row in H]
                det, adj = linalg.bareiss(H, linalg.identity_matrix(n))
                # (A, B)/a = d^2·H^-1·(GA, GB)·H^-T
                dHinv = [[Fraction(d * x, det) for x in row] for row in adj]
                A, B = (linalg.gram(dHinv, G) for G in grams)
                a = math.lcm(*(x.denominator for M in (A, B)
                               for row in M for x in row))
                A, B = ([[int(a * x) for x in row] for row in M]
                        for M in (A, B))
                yield q, d, H, GA, GB, a, A, B


def _reference_state(d, rows, a, A, B):
    """The canonical state (d', H') of the lattice (row span of rows)/d
    from row_hnf_reference, and its Grams H'·(A, B)·H'ᵀ/(a·d'^2)."""
    H = row_hnf_reference(rows)
    g = math.gcd(d, *(x for row in H for x in row))
    d, H = d // g, tuple(tuple(x // g for x in row) for row in H)
    return (d, H), [[[Fraction(x, a * d * d) for x in row]
                     for row in linalg.gram(H, M)] for M in (A, B)]


def test_child_key_and_grams_from_parent():
    """Each overlattice child of a state, built from the parent's HNF and
    Grams by the rank-one row and column replacement and the mirrored
    reduction, has the key of the reference HNF of (q·H, x·H) over d·q and
    the Grams H'·(A, B)·H'ᵀ/(a·d'^2) computed from scratch; the same holds
    for the sublattice children K·H."""
    rng = random.Random(61)
    overlattices = reduced = 0
    for q, d, H, GA, GB, a, A, B in _update_parents(rng):
        assert [[Fraction(x, a * d * d) for x in row]
                for row in linalg.gram(H, A)] == GA
        got = orbits._grow_candidates(H, GA, GB, q)
        want = _grow_candidates_reference(H, GA, GB, q)
        assert len(got) == len(want)
        for (basis, grams), rows in zip(got, want):
            key, ops = orbits._lattice_key(d * q, basis)
            assert (key, [orbits._congruence(G, ops) for G in grams]) \
                == _reference_state(d * q, rows, a, A, B)
            overlattices += 1
            reduced += bool(ops)
        for lam, (basis, grams) in zip(
                orbits._fp_lines(linalg.identity_matrix(len(H)), q),
                orbits._sublattice_candidates(H, GA, GB, q)):
            rows = linalg.mat_mul(kernel_mod_reference([lam], q, {q: 1}), H)
            key, ops = orbits._lattice_key(d, basis)
            assert (key, [orbits._congruence(G, ops) for G in grams]) \
                == _reference_state(d, rows, a, A, B)
    assert overlattices > 200 and reduced > 30


def _scaled(p, c):
    """c·(A, B)."""
    return pr.Pencil(p.n, *(tuple(tuple(c * x for x in row) for row in M)
                            for M in (p.A, p.B)))


def _sublattice_pencils():
    """c·S·(A, B)·S with c = 8 or 27: searches that reach covolume < 1."""
    rng = random.Random(62)
    return [scaled_pencil(_scaled(P0, 8), 4),
            scaled_pencil(_scaled(P0, 27), 9),
            scaled_pencil(_scaled(rand_pencil(rng, 6), 8), 12)]


def test_integralize_sublattice_branch_matches_eager_reference(monkeypatch):
    """An integral lattice of covolume c carries the form c^2·f, so a search
    explores a state of covolume < 1 only when the content of f has a
    square factor: c·S·(A, B)·S with c = 8 or 27.  On such pencils the
    search runs its index-q sublattice step and still agrees with the eager
    reference at every budget."""
    sublattices = []
    sublattice_candidates = orbits._sublattice_candidates
    monkeypatch.setattr(orbits, "_sublattice_candidates",
                        lambda *args: sublattices.append(args)
                        or sublattice_candidates(*args))
    for p in _sublattice_pencils():
        sublattices.clear()
        assert not p.is_integral
        outcomes = set()
        for budget in (1, 2, 3, 5, 8, 400):
            got = _search_outcome(pr.integralize, p, budget)
            assert got == _search_outcome(integralize_reference, p, budget)
            outcomes.add(got is None)
        assert sublattices and outcomes == {True, False}


def test_integralize_explores_in_reference_order(monkeypatch):
    """The search pops the states of the eager reference, keys (d, H), in
    the same order, on the pencils of the three reference tests above:
    the same sequence of explored states, not only the same outcome."""
    popped = {}

    def recording(name, key_at):
        def heappop(heap):
            entry = heapq.heappop(heap)
            popped[name].append(entry[key_at])
            return entry
        return SimpleNamespace(heappush=heapq.heappush, heappop=heappop)

    monkeypatch.setattr(orbits, "heapq", recording("search", 4))
    monkeypatch.setattr(helpers, "heapq", recording("reference", 2))
    pencils = [_two_primes_pencil(), *_eager_reference_pencils(),
               *_sublattice_pencils()]
    explored = 0
    for p in pencils:
        popped.update(search=[], reference=[])
        got = _search_outcome(pr.integralize, p, 400)
        assert got == _search_outcome(integralize_reference, p, 400)
        assert popped["search"] == popped["reference"]
        explored += len(popped["search"])
    assert explored > 2 * len(pencils)


def test_integralize_precondition():
    A = ((0, Fraction(1, 2)), (Fraction(1, 2), 0))
    B = ((1, 0), (0, -1))
    p = pr.Pencil(2, A, B)
    assert not pr.invariant_form(p).is_integral
    with pytest.raises(pr.PreconditionError):
        pr.integralize(p)


def test_norm_of_one_unit_example():
    ds = pr.DivisorSpec(X4Y4, pr.BinaryForm(1, (1, 0)), Fraction(1))
    val = pr.norm_of_one_formula(ds, 160)
    with mp.workprec(200):
        assert abs(val - 1) < 1e-40


def test_norm_of_one_radical_example():
    ds = pr.DivisorSpec(X4_3Y4, pr.BinaryForm(1, (1, -1)), Fraction(2))
    val = pr.norm_of_one_formula(ds, 200)
    with mp.workprec(240):
        assert abs(val - mp.mpf(NORM_ONE_X43_STR)) < mp.mpf(10) ** -48


def test_norm_of_one_cross_oracle():
    rng = random.Random(56)
    cases = [pr.DivisorSpec(X4Y4, pr.BinaryForm(1, (1, 0)), Fraction(1)),
             pr.DivisorSpec(X4_3Y4, pr.BinaryForm(1, (1, -1)), Fraction(2))]
    cases += [rand_point_divisor(rng) for _ in range(10)]
    for ds in cases:
        d = pr.datum_from_divisor(ds)
        p, one_bar = pr.pencil_from_datum(d)
        H = pr.reduction_covariant(p, 192)
        with mp.workprec(224):
            v = mp.matrix([mp.mpf(x.numerator) / mp.mpf(x.denominator)
                           for x in one_bar])
            quad = (v.T * mp_matrix_of(H.entries) * v)[0, 0]
            formula = pr.norm_of_one_formula(ds, 192)
            assert abs(quad - formula) <= 10 * max(H.error_bound, mp.mpf(1e-40))


def test_norm_of_one_boundary_consistency():
    # all roots of x^4+y^4 sit on the unit circle: both branch expressions
    # must agree there (Euler identity)
    rs = pr.complex_roots(X4Y4, 160)
    U = pr.BinaryForm(1, (1, 0))
    fx = X4Y4.partial_x()
    fy = X4Y4.partial_y()
    with mp.workprec(200):
        for e in rs.entries:
            w = e.value
            t1 = abs(w) / abs(4 * w ** 3)
            t2 = abs(1) * 0 + abs(U(1, 1 / w)) / abs(fy(1, 1 / w))
            t1b = abs(U(w, 1)) / abs(fx(w, 1))
            assert abs(t1 - t1b) < 1e-40
            assert abs(t1b - t2) < 1e-40


def test_norm_of_one_exact_root_sum_matches_mpc_reference():
    """The exact root sum agrees with the mpc evaluation of the same terms
    to 2^-(precision - 8) relative: on a U with Fraction coefficients
    (denominators cleared and divided back out), at n = 6 with m = 3, on
    x^4 + y^4 (every root on the unit circle), on forms with f_n = 0 (a
    root at 0, with roots on both sides) and on planted-point quartics."""
    rng = random.Random(63)
    B = pr.BinaryForm
    cases = [pr.DivisorSpec(X4_3Y4, B(1, (Fraction(1, 3), Fraction(-2, 5))),
                            Fraction(7)),
             pr.DivisorSpec(B(6, (2, -1, 0, 3, 1, -4, 5)),
                            B(3, (1, Fraction(-1, 2), 3, 2)), Fraction(1, 3)),
             pr.DivisorSpec(X4Y4, B(1, (1, 0)), Fraction(1)),
             pr.DivisorSpec(X4Y4, B(1, (3, -2)), Fraction(1)),
             pr.DivisorSpec(B(4, (2, 0, 0, 3, 0)), B(1, (1, -1)), Fraction(1)),
             pr.DivisorSpec(B(4, (1, 0, 0, 1, 0)), B(1, (0, 1)), Fraction(2))]
    cases += [rand_point_divisor(rng) for _ in range(8)]
    assert any(e.value == 0 for e in pr.complex_roots(cases[4].f).entries)
    for ds in cases:
        assert pr.discriminant(ds.f) != 0
        for precision in (96, 160):
            got = pr.norm_of_one_formula(ds, precision)
            want = norm_of_one_reference(ds, precision)
            with mp.workprec(precision + 32):
                tol = abs(want) * mp.mpf(2) ** (8 - precision)
                assert abs(got - want) <= tol


def test_orbit_json_roundtrip():
    d = pr.OrbitDatum(X4_3Y4,
                      pr.generator(X4_3Y4) - pr.one(X4_3Y4), Fraction(1, 2))
    d2 = pr.OrbitDatum.from_json_dict(d.to_json_dict())
    assert d2.z == d.z and d2.alpha.coeffs == d.alpha.coeffs
    ds = pr.DivisorSpec(X4_3Y4, pr.BinaryForm(1, (1, -1)), Fraction(2))
    ds2 = pr.DivisorSpec.from_json_dict(ds.to_json_dict())
    assert ds2 == ds
