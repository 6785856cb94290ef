"""Unit checks for the exact linear algebra and polynomial helpers."""

import importlib
import inspect
import pkgutil
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import pencilred as pr
from pencilred import linalg, polys
from helpers import (det_adj_reference, discriminant_sylvester,
                     fraction_solve, kernel_mod_reference, pderiv,
                     pm_is_irreducible_reference, row_hnf_reference,
                     sturm_real_root_count, sylvester_resultant)


def test_det_bareiss_matches_fraction_gauss():
    """The determinant alone (no block) of linalg.bareiss is the Fraction
    Gauss determinant, and det_exact agrees."""
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        d, block = linalg.bareiss(M)
        assert block is None
        assert d == fraction_solve(M)[0] == linalg.det_exact(M)


def _rand_square(rng, n, b):
    """A random n x n integer matrix, entries in [-b, b]: as drawn, with a
    zero leading pivot, with a zero leading column block (row swaps), or
    with a repeated row (singular)."""
    M = [[rng.randint(-b, b) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(4)
    if kind == 1 and n:
        M[0][0] = 0
    elif kind == 2 and n:
        for row in M[:rng.randint(1, n)]:
            row[0] = 0
    elif kind == 3 and n > 1:
        i, j = rng.sample(range(n), 2)
        M[i] = list(M[j])
    return M


@settings(deadline=None, max_examples=120, derandomize=True)
@given(n=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1),
       b=st.sampled_from((1, 2, 9, 10 ** 6)), width=st.integers(1, 3))
def test_bareiss_matches_references(n, seed, b, width):
    """linalg.bareiss(M, W) = (det M, adj(M)·W): with W = None the block is
    None, W = I gives the augmented Gauss-Jordan's (det, adj) and a random
    integer block of 1 to 3 columns the Fraction solve's adj(M)·W; both
    references give (0, None) for a singular M."""
    rng = random.Random(seed)
    M = _rand_square(rng, n, b)
    W = [[rng.randint(-b, b) for _ in range(width)] for _ in range(n)]
    d, adj = det_adj_reference(M)
    assert linalg.bareiss(M) == (d, None)
    assert linalg.bareiss(M, linalg.identity_matrix(n)) == (d, adj)
    assert linalg.bareiss(M, W) == fraction_solve(M, W)


def test_inverse_unimodular_roundtrip():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(2, 5)
        M = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-3, 3)
            for t in range(n):
                M[i][t] += c * M[j][t]
        inv = linalg.inverse_unimodular(M)
        assert linalg.mat_mul(M, inv) == linalg.identity_matrix(n)
    for M in ([[2, 0], [0, 1]], [[1, 1], [-1, 1]], [[1, 2], [2, 4]]):
        with pytest.raises(ValueError):     # det 2, 2 and 0
            linalg.inverse_unimodular(M)


def test_det_adj_matches_augmented_reference():
    """linalg.bareiss with the block I gives the (det, adj) of the
    Gauss-Jordan elimination on [M | I], on singular matrices, zero leading
    pivots (row swaps) and repeated rows included."""
    rng = random.Random(13)
    singular = 0
    for _ in range(600):
        n = rng.randint(1, 10)
        M = _rand_square(rng, n, rng.choice((1, 2, 9, 10 ** 6)))
        d, adj = linalg.bareiss(M, linalg.identity_matrix(n))
        assert (d, adj) == det_adj_reference(M)
        singular += adj is None
        if adj is not None:
            assert linalg.mat_mul(M, adj) == [[d * (i == j) for j in range(n)]
                                              for i in range(n)]
    assert 0 < singular < 600


def test_discriminant_matches_sylvester():
    """The Bezout determinant gives the Sylvester-resultant discriminant,
    of the same type, on int and Fraction forms of degree 1..12, with
    repeated roots and with f0 = 0."""
    rng = random.Random(14)
    kinds = set()
    for _ in range(400):
        n = rng.randint(1, 12)
        b = rng.choice((1, 5, 10 ** 6))
        c = [rng.randint(-b, b) for _ in range(n + 1)]
        if n >= 2 and rng.random() < 0.25:
            # times (x - r y)^2
            r = rng.randint(-3, 3)
            c = c[:n - 1]
            c = [x - 2 * r * y + r * r * z
                 for x, y, z in zip(c + [0, 0], [0] + c + [0], [0, 0] + c)]
        if rng.random() < 0.2:
            c[0] = 0
        if rng.random() < 0.5:
            c = [Fraction(x, rng.randint(1, 30)) for x in c]
        f = pr.BinaryForm(n, tuple(c))
        got, want = pr.discriminant(f), discriminant_sylvester(f)
        assert got == want and type(got) is type(want), f
        kinds.add((f.coeffs[0] == 0, got == 0, type(got)))
    assert len(kinds) >= 6


def _rand_entry(rng, rational):
    x = rng.randint(-9, 9)
    if rational and rng.random() < 0.6:
        return Fraction(x, rng.randint(1, 12))
    return x


def test_exact_kernels_match_fraction_reference():
    """gram, quad and clear_denominators against plain Fraction arithmetic,
    on int and Fraction matrices with n = 1..10; U may be singular (a
    repeated row, a zero row), rational or have fewer rows than n."""
    rng = random.Random(31)
    for n in range(1, 11):
        for trial in range(12):
            rational = trial % 2 == 1
            M = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    M[i][j] = M[j][i] = _rand_entry(rng, rational)
            k = n if trial < 8 else rng.randint(1, n)
            U = [[_rand_entry(rng, trial % 4 >= 2) for _ in range(n)]
                 for _ in range(k)]
            if trial in (4, 5) and k > 1:
                U[-1] = list(U[0])
            if trial in (6, 7):
                U[rng.randrange(k)] = [0] * n
            ref = tuple(tuple(sum(Fraction(U[i][a]) * M[a][b] * U[j][b]
                                  for a in range(n) for b in range(n))
                              for j in range(k)) for i in range(k))
            G = linalg.gram(U, M)
            assert G == ref and type(G) is tuple
            assert all(type(row) is tuple and len(row) == k for row in G)
            if not rational and trial % 4 < 2:
                assert all(type(x) is int for row in G for x in row)
            for x in U + [[_rand_entry(rng, True) for _ in range(n)]]:
                q = linalg.quad(M, x)
                assert q == sum(Fraction(a) * b
                                for a, b in zip(x, linalg.mat_vec(M, x)))
                assert q == linalg.gram([x], M)[0][0]
            for rows in (M, U):
                d, R = linalg.clear_denominators(rows)
                assert all(type(x) is int for row in R for x in row)
                assert R == [[Fraction(x) * d for x in row] for row in rows]
                # d is the least: no d / p clears every denominator
                assert not any(d % p == 0 and all(
                    (Fraction(x) * d / p).denominator == 1
                    for row in rows for x in row) for p in (2, 3, 5, 7, 11))
    assert linalg.clear_denominators([(Fraction(4, 2), 3)]) == (1, [[2, 3]])


def test_argument_caches_are_small():
    """Every lru_cache in pencilred that takes arguments keeps at most 64
    entries: their hits all come from within one item."""
    caches = {}
    for info in pkgutil.iter_modules(pr.__path__):
        mod = importlib.import_module("pencilred." + info.name)
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_parameters") and \
                    obj.__module__ == mod.__name__:
                caches["%s.%s" % (info.name, name)] = obj
    assert {"pencil.invariant_form", "pencil.adjugate_pencil",
            "forms.discriminant", "forms.complex_roots",
            "roots._certified_roots_cached"} <= set(caches)
    for name, fn in caches.items():
        if inspect.signature(fn).parameters:
            maxsize = fn.cache_parameters()["maxsize"]
            assert maxsize is not None and maxsize <= 64, name


def test_kernel_mod():
    M = [[2, 0], [0, 3]]
    K = linalg.kernel_mod(M, 6, {2: 1, 3: 1})
    # x with 2x1 = 0 mod 6, 3x2 = 0 mod 6 -> x1 in 3Z, x2 in 2Z
    assert sorted(abs(K[i][i]) for i in range(2)) == [2, 3]
    for v in K:
        assert (2 * v[0]) % 6 == 0 and (3 * v[1]) % 6 == 0


def test_resultant_and_sturm():
    # res(x^2 - 1, x^2 - 4) = prod of (a - b) over roots = (1-2)(1+2)(-1-2)(-1+2) = 9
    assert sylvester_resultant([1, 0, -1], [1, 0, -4]) == 9
    assert sturm_real_root_count([Fraction(1), 0, Fraction(-2)]) == 2
    assert sturm_real_root_count([Fraction(1), 0, Fraction(2)]) == 0
    assert sturm_real_root_count([Fraction(1), 0, 0, 0, Fraction(1)]) == 0


def test_mod_p_factor_and_irreducible():
    rng = random.Random(5)
    # x^4 + 1 factors into two quadratics mod 3
    fs = polys.pm_factor([1, 0, 0, 0, 1], 3, rng)
    assert [len(g) - 1 for g in fs] == [2, 2]
    assert polys.pm_is_irreducible([1, 1, 2], 3)       # x^2+x+2 mod 3
    assert not polys.pm_is_irreducible([1, 0, 0, 0, 1], 3)


def test_primes():
    assert polys.next_prime(1) == 2
    assert polys.next_prime(13) == 17
    assert polys.is_probable_prime(2 ** 61 - 1)
    assert not polys.is_probable_prime(2 ** 61 + 1)
    assert polys.factor_trial(1) == {}
    assert polys.factor_trial(360) == {2: 3, 3: 2, 5: 1}
    assert polys.factor_trial(12 * (2 ** 61 - 1)) == {2: 2, 3: 1,
                                                     2 ** 61 - 1: 1}
    with pytest.raises(ValueError):     # no factor below 10^6, composite
        polys.factor_trial(1000003 * 1000033)


def test_row_hnf_lattice_invariance():
    rng = random.Random(6)
    for _ in range(20):
        n = 3
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        det = linalg.bareiss(M)[0]
        if det == 0:
            continue
        # the row span of M contains det*Z^n (adj(M)·M = det·I)
        D = [[abs(det) * x for x in row] for row in linalg.identity_matrix(n)]
        H1 = linalg.hnf_insert(D, M)
        assert H1 == row_hnf_reference(M)
        # applying random row ops must not change the HNF
        M2 = [row[:] for row in M]
        for _ in range(4):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-3, 3)
            for t in range(n):
                M2[i][t] += c * M2[j][t]
        assert H1 == linalg.hnf_insert(D, M2)


def _is_hnf(H):
    n = len(H)
    return all(H[i][i] > 0 and all(H[i][j] == 0 for j in range(i))
               and all(0 <= H[r][i] < H[i][i] for r in range(i))
               for i in range(n))


@settings(deadline=None, max_examples=60, derandomize=True)
@given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       extra=st.integers(0, 4), bound=st.sampled_from((3, 30, 10 ** 6)))
def test_hnf_insert_matches_reference(n, seed, extra, bound):
    """Folding rows into an upper-triangular basis gives the HNF that the
    sort-based elimination finds for all the rows together."""
    rng = random.Random(seed)
    basis = [[0] * i + [rng.randint(1, 12)]
             + [rng.randint(-bound, bound) for _ in range(n - i - 1)]
             for i in range(n)]
    rows = [[rng.randint(-bound, bound) for _ in range(n)]
            for _ in range(extra)]
    H = linalg.hnf_insert(basis, rows)
    assert _is_hnf(H)
    assert H == row_hnf_reference(basis + rows)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(m=st.integers(2, 72), k=st.integers(1, 3), r=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_mod_brute_force(m, k, r, seed):
    """kernel_mod is the HNF of {x : M x = 0 mod m}: its rows solve the
    system and its index equals m^k over the number of solutions in
    [0, m)^k, counted by enumeration."""
    rng = random.Random(seed)
    M = [[rng.randint(-m, m) for _ in range(k)] for _ in range(r)]
    K = linalg.kernel_mod(M, m, polys.factor_trial(m))
    assert len(K) == k and _is_hnf(K)
    for row in K:
        assert all(sum(a * b for a, b in zip(eq, row)) % m == 0 for eq in M)
    solutions = sum(all(sum(a * b for a, b in zip(eq, x)) % m == 0
                        for eq in M)
                    for x in product(range(m), repeat=k))
    index = 1
    for i in range(k):
        index *= K[i][i]
    assert index * solutions == m ** k


@settings(deadline=None, max_examples=150, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       m=st.sampled_from((2 ** 14, 3 ** 8, 5 ** 8, 2 ** 3 * 3 ** 6, None)))
def test_kernel_mod_matches_lifting_reference(seed, m):
    """One elimination per prime power gives the HNF that lifting through
    p, p^2, ..., p^e gives: on two stacked 4 x 4 symmetric Grams (the
    shape integralize shrinks) whose entries carry random powers of the
    primes of m, and on random (M, m)."""
    rng = random.Random(seed)
    if m is None:
        m = rng.randint(1, 5000)
        k, r = rng.randint(1, 6), rng.randint(1, 8)
        M = [[rng.randint(-m, m) for _ in range(k)] for _ in range(r)]
    else:
        primes = list(polys.factor_trial(m))
        M = []
        for _ in range(2):
            G = [[0] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i, 4):
                    G[i][j] = G[j][i] = (rng.randint(-10 ** 6, 10 ** 6)
                                         * rng.choice(primes)
                                         ** rng.randint(0, 9))
            M += G
    factors = polys.factor_trial(m)
    assert linalg.kernel_mod(M, m, factors) == \
        kernel_mod_reference(M, m, factors)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(p=st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
       coeffs=st.lists(st.integers(-10 ** 3, 10 ** 3), min_size=1,
                       max_size=9),
       square=st.lists(st.integers(-10 ** 3, 10 ** 3), min_size=2,
                       max_size=4))
def test_pm_is_irreducible_matches_rabin(p, coeffs, square):
    """Berlekamp's count of irreducible factors agrees with Rabin's test on
    every squarefree f mod p (p <= 31, degree <= 8), and f·g^2 with
    deg g >= 1 is never irreducible."""
    f = polys.ptrim([c % p for c in coeffs])
    if f != [0] and polys.pm_gcd(f, pderiv(f), p) == [1]:
        assert polys.pm_is_irreducible(coeffs, p) == \
            pm_is_irreducible_reference(coeffs, p)
    g = polys.ptrim([c % p for c in square])
    if len(g) > 1 and f != [0]:
        assert not polys.pm_is_irreducible(
            polys.pm_mul(f, polys.pm_mul(g, g, p), p), p)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(p=st.sampled_from((3, 5, 7, 101, 1009, 1300021, 10 ** 9 + 7)),
       degrees=st.lists(st.integers(1, 5), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pm_factor_matches_sympy(p, degrees, seed):
    """pm_factor of a squarefree f mod p of degree 1..10 (a product of up
    to four random polynomials) is sympy's factor_list, made monic with
    residues in [0, p) and sorted by (length, coefficients), and the
    product of the factors is f made monic."""
    rng = random.Random(seed)
    f = [rng.randrange(1, p)]
    for d in degrees:
        if len(f) + d <= 11:
            f = polys.pm_mul(f, [rng.randrange(1, p)]
                             + [rng.randrange(p) for _ in range(d)], p)
    if len(f) == 1 or polys.pm_gcd(f, pderiv(f), p) != [1]:
        return
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(f, x, modulus=p).factor_list()
    expected = []
    for g, e in factors:
        assert e == 1
        g = [int(c) % p for c in g.all_coeffs()]
        inv = pow(g[0], -1, p)
        expected.append([c * inv % p for c in g])
    expected.sort(key=lambda g: (len(g), g))
    out = polys.pm_factor(f, p, random.Random(len(f)))
    assert out == expected
    prod = [1]
    for g in out:
        prod = polys.pm_mul(prod, g, p)
    inv = pow(f[0], -1, p)
    assert prod == [c * inv % p for c in f]


@settings(deadline=None, max_examples=200, derandomize=True)
@given(p=st.sampled_from((2, 3, 5, 7, 31, 10007)),
       a=st.lists(st.integers(-10 ** 4, 10 ** 4), min_size=1, max_size=10),
       b=st.lists(st.integers(-10 ** 4, 10 ** 4), min_size=1, max_size=6))
def test_pm_divmod_is_euclidean_division(p, a, b):
    """pm_divmod returns the unique (q, r) with a = q·b + r mod p and
    deg r < deg b, as trimmed lists of residues in [0, p)."""
    if polys.ptrim([c % p for c in b]) == [0]:
        with pytest.raises(ZeroDivisionError):
            polys.pm_divmod(a, b, p)
        return
    q, r = polys.pm_divmod(a, b, p)
    for c in (q, r):
        assert c == polys.ptrim(c) and all(0 <= x < p for x in c)
    assert r == [0] or len(r) < len(polys.ptrim([c % p for c in b]))
    qb = polys.pm_mul(q, b, p)
    assert polys.pm_sub(polys.pm_sub(a, qb, p), r, p) == [0]


@settings(deadline=None, max_examples=60, derandomize=True)
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       bound=st.sampled_from((3, 30, 10 ** 6)))
def test_hnf_reduce_ops_replay(n, seed, bound):
    """The row operations hnf_reduce returns, replayed on a copy of an
    upper-triangular basis B, give its row HNF hnf_insert(B, []), which is
    what hnf_reduce leaves in B."""
    rng = random.Random(seed)
    B = [[0] * i + [rng.randint(1, 12)]
         + [rng.randint(-bound, bound) for _ in range(n - i - 1)]
         for i in range(n)]
    copy = [list(r) for r in B]
    H = linalg.hnf_insert(B, [])
    ops = linalg.hnf_reduce(B)
    assert B == H and _is_hnf(H)
    for j, i, m in ops:
        assert j < i and m
        copy[j] = [u - m * v for u, v in zip(copy[j], copy[i])]
    assert copy == H


def test_kernel_mod_of_modulus_one():
    """Every x solves M x = 0 mod 1: the kernel is Z^k."""
    assert linalg.kernel_mod([[3, 5, 7]], 1, {}) == linalg.identity_matrix(3)
