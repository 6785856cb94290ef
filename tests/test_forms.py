"""Tests of the binary forms module: heights, discriminants, roots, Mahler
measure, real root counts, irreducibility."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import pencilred as pr
from pencilred import forms
from helpers import (disc_product_oracle, form_mul, rand_squarefree_poly,
                     reference_roots, sturm_real_root_count)

X4Y4 = pr.BinaryForm(4, (1, 0, 0, 0, 1))
X4_3Y4 = pr.BinaryForm(4, (1, 0, 0, 0, 3))
SPLIT = pr.form_from_linear_factors([(1, 2), (1, 3), (1, 1), (1, -1)])


def test_height():
    assert pr.height(X4Y4) == 1
    assert pr.height(pr.BinaryForm(4, (1, -5, 5, 5, -6))) == 6
    assert pr.height(pr.BinaryForm(4, (0, 0, 0, 0, 0))) == 0


def test_discriminant_unit_quartic():
    assert pr.discriminant(X4Y4) == 256
    # cross-check against the splitting-field product formula with the
    # closed-form roots of -1 (8th roots of unity with odd exponent)
    with mp.workprec(120):
        roots = [mp.exp(1j * mp.pi * (2 * k + 1) / 4) for k in range(4)]
        prod = mp.mpf(1)
        for i in range(4):
            for j in range(i + 1, 4):
                prod *= abs(roots[i] - roots[j]) ** 2
        assert abs(prod - 256) < 1e-25


def test_discriminant_x4_plus_3y4():
    # disc(x^n - a) = (-1)^((n-1)(n-2)/2) n^n a^(n-1) with a = -3
    assert pr.discriminant(X4_3Y4) == (-1) ** 3 * 4 ** 4 * (-3) ** 3 == 6912


def test_discriminant_repeated_factor():
    f = pr.form_from_linear_factors([(1, 1), (1, 1), (1, -1), (1, 2)])
    assert pr.discriminant(f) == 0


def test_discriminant_product_formula_random_split():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        roots = [rng.randint(-6, 6) for _ in range(n)]
        f = pr.form_from_linear_factors([(1, b) for b in roots])
        expected = disc_product_oracle([(1, b) for b in roots])
        assert pr.discriminant(f) == expected
        assert (pr.discriminant(f) == 0) == (len(set(roots)) < n)


def test_discriminant_f0_zero_projective():
    # y * (x - 2y)(x - y)(x + y): projective roots {inf, 2, 1, -1}
    f = form_mul(pr.BinaryForm(1, (0, 1)),
                 pr.form_from_linear_factors([(1, 2), (1, 1), (1, -1)]))
    assert f.coeffs[0] == 0
    expected = disc_product_oracle([(0, -1), (1, 2), (1, 1), (1, -1)])
    assert pr.discriminant(f) == expected


def test_complex_roots_unit_circle():
    rs = pr.complex_roots(X4Y4, 128)
    assert len(rs.entries) == 4
    assert all(e.boundary for e in rs.entries)
    with mp.workprec(160):
        targets = [mp.exp(1j * mp.pi * (2 * k + 1) / 4) for k in range(4)]
        for e in rs.entries:
            assert min(abs(e.value - t) for t in targets) < 1e-30
            # residual certification
            assert abs(e.value ** 4 + 1) < 1e-30


def test_complex_roots_split_classes():
    rs = pr.complex_roots(SPLIT, 128)
    inside = sorted(round(float(mp.re(e.value))) for e in rs.inside())
    outside = sorted(round(float(mp.re(e.value)))
                     for e in rs.entries if e.outside)
    assert inside == [-1, 1]
    assert outside == [2, 3]


def test_complex_root_classes_match_reference():
    """A centre z is outside iff |z| > 1 + 2^-(P+16), boundary iff
    ||z| - 1| <= 2^-ceil(P/2).  Against a reference root w with radius rho
    at 4P bits, |z| lies within rho + r of |w| (r the certified radius), so
    each class is asserted wherever that band decides it, and an exact root
    on the unit circle (x^2 - y^2, x^4 + y^4, SPLIT's 1 and -1, the
    palindromic quartic's pair) is boundary and inside."""
    rng = random.Random(24)
    fixed = [pr.BinaryForm(2, (1, 0, -1)), X4Y4, SPLIT,
             # (x^2 + x + 1)(2x^2 - 5x + 2): roots on the circle, 2 and 1/2
             pr.BinaryForm(4, (2, -3, -1, -3, 2))]
    seeded = [pr.BinaryForm(n, tuple(rand_squarefree_poly(rng, n, 6)))
              for n in (2, 3, 4, 5, 6, 8) for _ in range(3)]
    decided = {"outside": 0, "inside": 0, "boundary": 0, "off": 0,
               "circle": 0}
    for precision in (95, 96, 256):
        for f in fixed + seeded:
            rs = pr.complex_roots(f, precision)
            ref = reference_roots(list(f.coeffs), precision)
            with mp.workprec(4 * precision):
                one = mp.mpf(1)
                outer = one + mp.mpf(2) ** -(precision + 16)
                tol = mp.mpf(2) ** -(-(-precision // 2))
                assert rs.boundary_tol == tol
                for e in rs.entries:
                    w, rho = min(ref, key=lambda wr: abs(e.value - wr[0]))
                    band, m = rho + e.radius, abs(w)
                    if m - band > outer:
                        assert e.outside
                        decided["outside"] += 1
                    elif m + band <= outer:
                        assert not e.outside
                        decided["inside"] += 1
                    if abs(m - 1) + band <= tol:
                        assert e.boundary
                        decided["boundary"] += 1
                    elif abs(m - 1) - band > tol:
                        assert not e.boundary
                        decided["off"] += 1
                    if f in fixed and abs(m - 1) <= rho:
                        assert e.boundary and not e.outside
                        decided["circle"] += 1
    assert all(decided.values()), decided


def test_complex_roots_radical_moduli():
    rs = pr.complex_roots(X4_3Y4, 128)
    with mp.workprec(160):
        m = mp.power(3, mp.mpf(1) / 4)
        for e in rs.entries:
            assert e.outside and not e.boundary
            assert abs(abs(e.value) - m) < 1e-30


def test_complex_roots_conjugate_closure():
    rng = random.Random(12)
    with mp.workprec(128):
        for _ in range(50):
            f = pr.BinaryForm(4, tuple(rng.randint(-5, 5) for _ in range(5)))
            if pr.discriminant(f) == 0:
                continue
            rs = pr.complex_roots(f, 96)
            finite = [e.value for e in rs.entries if not e.at_infinity]
            for z in finite:
                assert min(abs(mp.conj(z) - w) for w in finite) < 1e-25


def test_complex_roots_degenerate_rejected():
    with pytest.raises(pr.DegenerateForm):
        pr.complex_roots(pr.BinaryForm(2, (1, 2, 1)), 64)


def test_mahler_examples():
    assert abs(pr.mahler_measure(X4Y4, 128) - 1) < 1e-30
    assert abs(pr.mahler_measure(SPLIT, 128) - 6) < 1e-30
    assert abs(pr.mahler_measure(X4_3Y4, 128) - 3) < 1e-30


def test_mahler_root_at_infinity():
    # y(x-2y)(x-y)(x+y): Mahler is that of (x-2)(x-1)(x+1), namely 2
    f = form_mul(pr.BinaryForm(1, (0, 1)),
                 pr.form_from_linear_factors([(1, 2), (1, 1), (1, -1)]))
    rs = pr.complex_roots(f, 96)
    assert sum(1 for e in rs.entries if e.at_infinity) == 1
    assert all(e.outside for e in rs.entries if e.at_infinity)
    assert abs(pr.mahler_measure(f, 128) - 2) < 1e-25


def test_mahler_multiplicativity():
    rng = random.Random(13)
    done = 0
    while done < 40:
        r1 = [rng.randint(-6, 6) for _ in range(2)]
        r2 = [rng.randint(-6, 6) for _ in range(2)]
        if len(set(r1)) < 2 or len(set(r2)) < 2 or set(r1) & set(r2):
            continue
        f = pr.form_from_linear_factors([(1, b) for b in r1])
        g = pr.form_from_linear_factors([(1, b) for b in r2])
        mf, ef = pr.mahler_measure_with_error(f, 128)
        mg, eg = pr.mahler_measure_with_error(g, 128)
        mfg, efg = pr.mahler_measure_with_error(form_mul(f, g), 128)
        assert abs(mfg - mf * mg) <= ef * mg + eg * mf + efg + mp.mpf(1e-25)
        done += 1


def test_real_root_count_examples():
    assert pr.real_root_count(X4Y4) == 0
    assert pr.real_root_count(SPLIT) == 4
    assert pr.real_root_count(pr.BinaryForm(4, (1, 0, 0, 0, -1))) == 2


def test_real_root_count_root_at_infinity():
    f = form_mul(pr.BinaryForm(1, (0, 1)),
                 pr.form_from_linear_factors([(1, 2), (1, 1), (1, -1)]))
    assert pr.real_root_count(f) == 4


def test_real_root_count_matches_rootset():
    """The count read off the certified roots equals Sturm's on f(X, 1),
    plus the root at infinity, for seeded forms of degree 1..10 with close
    rational roots, f0 = 0 and fn = 0, at 64, 96 and 256 bits."""
    rng = random.Random(14)
    for n in range(1, 11):
        for zeros in ((0, 0), (1, 0), (0, 1), (1, 1)):
            if n - sum(zeros) < 1:
                continue
            for _ in range(4):
                c = rand_squarefree_poly(rng, n - sum(zeros), bound=20)
                f = pr.BinaryForm(n, (0,) * zeros[0] + tuple(c)
                                  + (0,) * zeros[1])
                expected = sturm_real_root_count(c) + zeros[0] + zeros[1]
                for bits in (64, 96, 256):
                    assert pr.real_root_count(f, bits) == expected


def test_leading_coefficient_bound():
    assert pr.leading_coefficient_bound_check(X4Y4, 128)
    assert pr.leading_coefficient_bound_check(X4_3Y4, 128)
    rng = random.Random(15)
    done = 0
    while done < 50:
        f = pr.BinaryForm(4, tuple(rng.randint(-5, 5) for _ in range(5)))
        if pr.discriminant(f) == 0 or f.coeffs[0] == 0 or f.coeffs[-1] == 0:
            continue
        assert pr.leading_coefficient_bound_check(f, 128)
        done += 1


def test_is_irreducible_examples():
    assert pr.is_irreducible(X4_3Y4) is True
    reducible = form_mul(pr.BinaryForm(1, (1, -2)), pr.BinaryForm(3, (1, 0, 0, 2)))
    assert pr.is_irreducible(reducible) is False
    # x^4 + 1 is reducible mod every prime: the recombination fallback must fire
    assert pr.is_irreducible(X4Y4) is True


def test_is_irreducible_y_factor_and_degenerate():
    f = form_mul(pr.BinaryForm(1, (0, 1)),
                 pr.form_from_linear_factors([(1, 2), (1, 1), (1, -1)]))
    assert pr.is_irreducible(f) is False
    assert pr.is_irreducible(pr.form_from_linear_factors(
        [(1, 1), (1, 1), (1, 2), (1, 3)])) is False


def test_is_irreducible_against_sympy():
    rng = random.Random(16)
    x = sympy.Symbol("x")
    done = 0
    while done < 60:
        coeffs = [rng.randint(-6, 6) for _ in range(5)]
        if coeffs[0] == 0:
            continue
        f = pr.BinaryForm(4, tuple(coeffs))
        verdict = pr.is_irreducible(f)
        if verdict is None:
            continue
        poly = sympy.Poly(coeffs, x)
        factors = sympy.factor_list(poly)[1]
        n_irred = sum(mult for _, mult in factors
                      if sympy.Poly(_, x).degree() > 0)
        is_irred = (n_irred == 1 and factors[0][1] == 1
                    and sympy.Poly(factors[0][0], x).degree() == 4)
        assert verdict == is_irred
        done += 1


def test_form_json_roundtrip():
    f = pr.BinaryForm(4, (1, -5, 5, 5, -6))
    assert pr.BinaryForm.from_json_dict(f.to_json_dict()) == f
    g = pr.BinaryForm(2, (Fraction(1, 2), 0, 3))
    assert pr.BinaryForm.from_json_dict(g.to_json_dict()) == g


@settings(deadline=None, max_examples=200, derandomize=True)
@given(lead=st.sampled_from((1, -1, 4, -6, 12, 30)),
       tail=st.lists(st.integers(-60, 60), min_size=0, max_size=5),
       planted=st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)),
                        max_size=2),
       zero_root=st.booleans())
def test_rational_root_matches_sympy(lead, tail, planted, zero_root):
    """_rational_root finds a rational root exactly when sympy does, and
    returns the first in its candidate order: the root a/b in lowest terms
    with the least |a|, then the least b, then a > 0.  Leading coefficients
    are +-1 or composite; some inputs have p(0) = 0 or planted roots a/b."""
    p = [lead] + tail
    for a, b in planted:
        p = [x * b for x in p + [0]]
        p[1:] = [x - a * y for x, y in zip(p[1:], p)]
    if zero_root:
        p = p + [0]
    x = sympy.Symbol("x")
    roots = [Fraction(int(r.p), int(r.q)) for r in
             sympy.Poly(p, x).ground_roots()] if len(p) > 1 else []
    got = forms._rational_root(p)
    if not roots:
        assert got is None
    else:
        assert got == min(roots, key=lambda r: (abs(r.numerator),
                                                r.denominator, r < 0))
