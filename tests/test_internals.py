"""Unit checks for the exact linear algebra and polynomial helpers."""

import random
from fractions import Fraction

import pytest

from pencilred import linalg, polys


def test_det_bareiss_matches_fraction_gauss():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert linalg.det_bareiss(M) == linalg.det_exact(M)


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


def test_kernel_mod():
    M = [[2, 0], [0, 3]]
    K = linalg.kernel_mod(M, 6, {2: 1, 3: 1})
    # x with 2x1 = 0 mod 6, 3x2 = 0 mod 6 -> x1 in 3Z, x2 in 2Z
    assert sorted(abs(K[i][i]) for i in range(2)) == [2, 3]
    for v in K:
        assert (2 * v[0]) % 6 == 0 and (3 * v[1]) % 6 == 0


def test_resultant_and_sturm():
    # res(x^2 - 1, x^2 - 4) = prod of (a - b) over roots = (1-2)(1+2)(-1-2)(-1+2) = 9
    assert polys.sylvester_resultant([1, 0, -1], [1, 0, -4]) == 9
    assert polys.sturm_real_root_count([Fraction(1), 0, Fraction(-2)]) == 2
    assert polys.sturm_real_root_count([Fraction(1), 0, Fraction(2)]) == 0
    assert polys.sturm_real_root_count([Fraction(1), 0, 0, 0, Fraction(1)]) == 0


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
        if linalg.det_bareiss(M) == 0:
            continue
        H1 = linalg.row_hnf(M)
        # applying random row ops must not change the HNF
        M2 = [row[:] for row in M]
        for _ in range(4):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-3, 3)
            for t in range(n):
                M2[i][t] += c * M2[j][t]
        assert H1 == linalg.row_hnf(M2)
