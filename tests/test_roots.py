"""Certified roots: every radius holds against an independent reference, and
the root set has the shape the covariant relies on."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from math import lcm

import mpmath as mp
import pytest

import pencilred as pr
from pencilred import roots
from helpers import (form_mul, rand_squarefree_poly, reference_roots,
                     sturm_real_root_count)
from pencilred.roots import certified_roots

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _poly_mul(*factors):
    """Coefficients of the product of polynomials given by coefficients."""
    forms = [pr.BinaryForm(len(c) - 1, tuple(c)) for c in factors]
    return list(reduce(form_mul, forms).coeffs)


def assert_radii_hold(coeffs, precision):
    """Each certified disk is small and holds its own root of the
    reference; the reference is checked first."""
    ref = reference_roots(coeffs, precision)
    got = certified_roots(coeffs, precision)
    n = len(coeffs) - 1
    assert len(got) == len(ref) == n
    with mp.workprec(4 * precision):
        tiny = mp.mpf(2) ** (-2 * precision)
        assert all(0 <= rho <= tiny * (1 + abs(w)) for w, rho in ref)
        assert all(abs(w - v) > rho + sigma
                   for i, (w, rho) in enumerate(ref)
                   for v, sigma in ref[i + 1:])
        matched = set()
        for z, r in got:
            assert r <= mp.mpf(2) ** (-precision) * (1 + abs(z))
            j = min(range(n), key=lambda j: abs(z - ref[j][0]))
            w, rho = ref[j]
            # the root in the reference disk lies within r of z only if
            # the two disks meet
            assert abs(z - w) <= r + rho, (coeffs, precision, z, r, w)
            matched.add(j)
        assert len(matched) == n


def test_radii_hold_on_seeded_forms():
    rng = random.Random(2)
    for n in range(2, 11):
        for precision in (96, 128, 256):
            for _ in range(4):
                assert_radii_hold(rand_squarefree_poly(rng, n), precision)


@pytest.mark.parametrize("coeffs", [[69, 61, -58, -18, 32],
                                    [-128, 216, -80, -16, 9]])
def test_radii_hold_next_to_a_rational_root(coeffs):
    """A real root close to an exact rational one (-1, and 1/2): a radius
    from a rounded p(z) missed its root by 3.3 times the radius here."""
    assert_radii_hold(coeffs, 96)


def test_root_set_shape():
    """A non-real root is followed by its exact conjugate, which the
    covariant finds at 32 bits above the precision; a real root has
    imaginary part exactly 0, and there are as many as Sturm counts."""
    rng = random.Random(11)
    for n in range(1, 11):
        for _ in range(6):
            c = rand_squarefree_poly(rng, n)
            roots = [z for z, _ in certified_roots(c, 96)]
            real = 0
            while roots:
                z = roots.pop(0)
                if z.imag == 0:
                    real += 1
                else:
                    with mp.workprec(96 + 32):
                        assert roots and roots.pop(0) == mp.conj(z)
            assert real == sturm_real_root_count(c)


def _record_ladder(monkeypatch):
    """Record [width, sweeps] for each `_polish` call (a sweep runs one
    rounded Horner per point) and the width of each `_certify` call."""
    widths, certificates = [], []
    polish, horner, certify = roots._polish, roots.horner, roots._certify

    def recording_polish(c, zs, s):
        widths.append([s, 0])
        return polish(c, zs, s)

    def recording_horner(c, x, y, s, exact=False):
        widths[-1][1] += not exact
        return horner(c, x, y, s, exact)

    def recording_certify(c, zs, s, precision):
        certificates.append(s)
        return certify(c, zs, s, precision)

    monkeypatch.setattr(roots, "_polish", recording_polish)
    monkeypatch.setattr(roots, "horner", recording_horner)
    monkeypatch.setattr(roots, "_certify", recording_certify)
    roots._certified_roots_cached.cache_clear()
    return widths, certificates


def test_cubic_ladder_widths_and_sweeps(monkeypatch):
    """The float seeds go straight to the first width, each width is three
    times the last up to precision + 32, and Aberth's cubic order leaves one
    sweep to each width after the first: at P = 96 two sweeps at 128 bits,
    at P = 256 two at 156 and one at 288, and one certificate per form."""
    widths, certificates = _record_ladder(monkeypatch)
    rng = random.Random(24)
    for n in (4, 6, 8, 10):
        for precision, ladder in ((96, [[128, 2]]),
                                  (256, [[156, 2], [288, 1]])):
            for _ in range(5):
                c = rand_squarefree_poly(rng, n)
                widths.clear()
                certificates.clear()
                certified_roots(c, precision)
                assert [[s, k / n] for s, k in widths] == ladder, c
                assert certificates == [precision + 32]


@pytest.mark.parametrize("precision", [96, 256])
def test_cluster_certifies_through_more_sweeps(monkeypatch, precision):
    """Two real roots 2^-60 apart: Aberth converges only linearly until it
    resolves them, so the last width takes more than one sweep; the disks
    certify honestly or PrecisionExhausted is raised."""
    widths, _ = _record_ladder(monkeypatch)
    T = 1 << 60
    c = _poly_mul([T, -T], [T, -T - 1], [1, 1, 1])
    try:
        assert_radii_hold(c, precision)
    except pr.PrecisionExhausted:
        return
    assert widths[-1][1] > len(c) - 1


def test_fraction_coefficients_match_scaled_integers():
    rng = random.Random(5)
    for n in range(1, 9):
        c = rand_squarefree_poly(rng, n)
        frac = [Fraction(x, rng.randint(1, 30)) for x in c]
        scale = lcm(*(x.denominator for x in frac))
        ints = [int(x * scale) for x in frac]
        assert certified_roots(frac, 128) == certified_roots(ints, 128)


def test_huge_coefficients_and_spread_roots():
    """Coefficients near 10^40 and roots spread over 10^(+-20): each case
    certifies with honest radii or raises PrecisionExhausted."""
    rng = random.Random(3)
    E = 10 ** 20
    T = 10 ** 30
    cases = [_poly_mul([1, -E], [E, -1], [1, 1, 1]),
             _poly_mul([1, -7 * E], [E, 3], [E, 5, E]),
             _poly_mul([1, 0, -E], [E, 0, -1]),
             # two real roots 2·10^-30 apart, symmetric about 1
             _poly_mul([T, -T - 1], [T, -T + 1]),
             [10 ** 40] + [rng.randint(-9, 9) for _ in range(5)] + [1],
             [1] + [rng.randint(-9, 9) for _ in range(5)] + [10 ** 40]]
    cases += [[rng.randint(-10 ** 40, 10 ** 40) for _ in range(n + 1)]
              for n in (3, 6, 9)]
    for c in cases:
        for precision in (96, 256):
            try:
                assert_radii_hold(c, precision)
            except pr.PrecisionExhausted:
                pass


def test_no_numpy_import():
    """The root finder stays pure Python: importing pencilred and reducing
    one pencil does not import numpy."""
    code = ("import sys\n"
            "import pencilred as pr\n"
            "A = ((2, 1, 0, 0), (1, 3, 1, 0), (0, 1, 2, 1), (0, 0, 1, 4))\n"
            "B = ((1, 0, 0, 1), (0, -1, 1, 0), (0, 1, 2, 0), (1, 0, 0, -3))\n"
            "pr.lll_reduce(pr.Pencil(4, A, B), precision=96)\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
