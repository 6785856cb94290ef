"""Acceptance suite: every primary criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them when green).
Sampling is seeded, so the run is reproducible.
"""

import random
import time
from fractions import Fraction

import mpmath as mp

import pencilred as pr
from helpers import (mp_matrix_of, planted_gram, rand_family_instance,
                     rand_monic_form, rand_pencil, rand_point_divisor,
                     rand_unimodular, rand_valid_datum)

X4Y4 = pr.BinaryForm(4, (1, 0, 0, 0, 1))
X4_3Y4 = pr.BinaryForm(4, (1, 0, 0, 0, 3))
NORM_ONE_X43_STR = "0.88807383397711526216076459641812180401171719019895"


def report(name, ok, t0, budget):
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print("[%s] %s (%.1fs, budget %ds)" % (status, name, elapsed, budget))
    assert ok, name
    assert elapsed < budget, "%s exceeded runtime budget" % name


def test_criterion_worked_orbit_exactness():
    t0 = time.time()
    d = pr.OrbitDatum(X4Y4, pr.generator(X4Y4), Fraction(1))
    p, one_bar = pr.pencil_from_datum(d)
    ok = (p.A == ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1))
          and p.B == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1),
                      (0, 0, -1, 0))
          and pr.invariant_form(p) == X4Y4
          and one_bar == (1, 0, 0, 0))
    report("worked-orbit exactness", ok, t0, 1)


def test_criterion_round_trip_invariance():
    t0 = time.time()
    rng = random.Random(101)
    ok = True
    for n, count in ((4, 200), (6, 50)):
        for _ in range(count):
            f = rand_monic_form(rng, n)
            d = rand_valid_datum(rng, f)
            p, _ = pr.pencil_from_datum(d)
            ok = ok and (pr.invariant_form(p) == f)
    report("round-trip invariance (200 @ n=4, 50 @ n=6)", ok, t0, 120)


def test_criterion_determinant_identity():
    t0 = time.time()
    rng = random.Random(102)
    ok = True
    for _ in range(100):
        p = rand_pencil(rng, 4, 3)
        det_h, mah, agree = pr.det_identity_check(p, 128)
        with mp.workprec(160):
            ok = ok and agree and abs(det_h - mah) <= mp.mpf(1e-9) * mah
    report("determinant identity |det H - Mahler|/Mahler <= 1e-9 (100 pencils)",
           ok, t0, 120)


def test_criterion_equivariance():
    t0 = time.time()
    rng = random.Random(103)
    ok = True
    for _ in range(200):
        p = rand_pencil(rng, 4, 3)
        g = rand_unimodular(rng, 4)
        H = pr.reduction_covariant(p, 128)
        Hg = pr.reduction_covariant(pr.act(g, p), 128)
        with mp.workprec(160):
            hinv = mp_matrix_of(g.inverse().entries)
            expected = hinv.T * mp_matrix_of(H.entries) * hinv
            scale = max(abs(x) for row in H.entries for x in row)
            diff = max(abs(Hg.entries[i][j] - expected[i, j])
                       for i in range(4) for j in range(4))
            ok = ok and diff <= mp.mpf(1e-9) * scale
    report("equivariance of H over 200 random (g, p)", ok, t0, 120)


def _norm_agreement(ds, precision=192):
    d = pr.datum_from_divisor(ds)
    p, one_bar = pr.pencil_from_datum(d)
    H = pr.reduction_covariant(p, precision)
    with mp.workprec(precision + 32):
        v = mp.matrix([mp.mpf(x.numerator) / mp.mpf(x.denominator)
                       for x in one_bar])
        quad = (v.T * mp_matrix_of(H.entries) * v)[0, 0]
        formula = pr.norm_of_one_formula(ds, precision)
        return abs(quad - formula), formula


def test_criterion_norm_formula_agreement():
    t0 = time.time()
    ds1 = pr.DivisorSpec(X4Y4, pr.BinaryForm(1, (1, 0)), Fraction(1))
    ds2 = pr.DivisorSpec(X4_3Y4, pr.BinaryForm(1, (1, -1)), Fraction(2))
    with mp.workprec(224):
        diff1, val1 = _norm_agreement(ds1)
        diff2, val2 = _norm_agreement(ds2)
        ok = (diff1 <= mp.mpf(1e-8) and abs(val1 - 1) <= mp.mpf(1e-8)
              and diff2 <= mp.mpf(1e-8)
              and abs(val2 - mp.mpf(NORM_ONE_X43_STR)) <= mp.mpf(1e-8))
    rng = random.Random(104)
    for _ in range(50):
        ds = rand_point_divisor(rng)
        with mp.workprec(224):
            diff, _ = _norm_agreement(ds)
            ok = ok and diff <= mp.mpf(1e-8)
    report("norm-formula agreement <= 1e-8 (2 closed-form + 50 random)",
           ok, t0, 300)


def test_criterion_divisor_datum_validity():
    t0 = time.time()
    rng = random.Random(105)
    ok = True
    for _ in range(100):
        ds = rand_point_divisor(rng)
        ok = ok and pr.validate_datum(pr.datum_from_divisor(ds))
    report("divisor datum validity (100 rational points)", ok, t0, 60)


def test_criterion_integralization():
    t0 = time.time()
    ds0 = pr.DivisorSpec(X4_3Y4, pr.BinaryForm(1, (1, -1)), Fraction(2))
    p0, _ = pr.pencil_from_datum(pr.datum_from_divisor(ds0))
    res0 = pr.integralize(p0)
    ok = res0.pencil.is_integral and pr.invariant_form(res0.pencil) == X4_3Y4
    rng = random.Random(106)
    succ = 0
    for _ in range(50):
        ds = rand_point_divisor(rng)
        p, _ = pr.pencil_from_datum(pr.datum_from_divisor(ds))
        try:
            res = pr.integralize(p)
            assert res.pencil.is_integral
            assert pr.invariant_form(res.pencil) == ds.f
            succ += 1
        except pr.NotFound:
            pass
    ok = ok and succ >= 45
    report("integralization (worked example; %d/50 random >= 45)" % succ,
           ok, t0, 600)


def test_criterion_inequality_suite():
    t0 = time.time()
    rng = random.Random(107)
    ok = True
    for X in (10, 100):
        for _ in range(50):
            ds, fp = rand_family_instance(rng, X, 0.3)
            prop = pr.prop_bound_check(ds.f, ds.U, fp, 128)
            vec = pr.vector_length_bound_check(ds, fp, 128)
            with mp.workprec(160):
                ok = (ok and prop.holds and vec.holds
                      and abs(prop.lhs - vec.lhs) <= mp.mpf(1e-6))
    report("inequality suite on 100 family instances (X in {10,100})",
           ok, t0, 600)


def test_criterion_cusp_implication():
    t0 = time.time()
    rng = random.Random(108)
    ok = True
    small_count = 0
    for _ in range(200):
        s = mp.mpf(1) / rng.randint(8, 2000)
        H = planted_gram(rng, 4, s)
        with mp.workprec(160):
            eps = 4 * mp.mpf(s) ** Fraction(3, 4)
        if pr.epsilon_small_test(H, eps):
            small_count += 1
            ok = ok and pr.cusp_membership(H, eps)
    ok = ok and small_count >= 150   # the implication must actually fire
    report("cusp implication on 200 planted Grams (%d small)" % small_count,
           ok, t0, 60)


def test_criterion_mu_eps_decay():
    t0 = time.time()
    batch = pr.sample_pencils(4, 3, 10000, seed=20240601, precision=96)
    nd = batch.nondegenerate_items()
    degenerate_fraction = 1 - len(nd) / batch.count
    eps_list = [0.8, 0.4, 0.2, 0.1, 0.05]
    rows = pr.small_vector_frequency(batch, eps_list)
    freqs = [fr for _, fr, _ in rows]
    ok = (freqs == sorted(freqs, reverse=True)
          and freqs[-1] < freqs[0]
          and degenerate_fraction < 0.05
          and all(it.det_identity_ok for it in nd))
    hist = pr.component_histogram(batch)
    ok = ok and set(hist) == {0, 1, 2}
    report("mu(U_eps) decay on seeded 10^4 batch "
           "(freq(0.05)=%.4f < freq(0.8)=%.4f, degenerate %.2f%%)"
           % (freqs[-1], freqs[0], 100 * degenerate_fraction), ok, t0, 600)


def test_criterion_stabilizer_orders():
    t0 = time.time()
    ok = (pr.stabilizer_order(0, 4) == 4
          and pr.stabilizer_order(2, 4) == 8
          and pr.stabilizer_order(1, 6) == 8)
    report("stabilizer orders (m=0,n=4)->4, (m=2,n=4)->8, (m=1,n=6)->8",
           ok, t0, 1)
