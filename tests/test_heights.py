"""Tests of heights, the family filter, and the explicit inequalities."""

import json
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

import pencilred as pr
from pencilred import cli, covariant, heights
from pencilred.reduce import form_norm
from helpers import rand_family_instance

X4_3Y4 = pr.BinaryForm(4, (1, 0, 0, 0, 3))


def test_divisor_height():
    assert abs(pr.divisor_height(pr.BinaryForm(1, (1, -1)))) < 1e-15
    assert abs(pr.divisor_height(pr.BinaryForm(1, (5, -3))) - math.log(5)) \
        < 1e-15
    with pytest.raises(pr.NotPrimitive):
        pr.divisor_height(pr.BinaryForm(1, (2, -4)))


def test_point_height_examples():
    u = pr.BinaryForm(1, (1, -2))
    assert pr.point_height_bound_check(u, u, 128)
    q = pr.BinaryForm(2, (1, 0, -2))
    assert pr.point_height_bound_check(q, q, 128)


def test_point_height_random():
    rng = random.Random(61)
    done = 0
    while done < 100:
        m = rng.randint(1, 5)
        coeffs = [rng.randint(-9, 9) for _ in range(m + 1)]
        if coeffs[0] == 0:
            continue
        f = pr.BinaryForm(m, tuple(coeffs))
        if not f.is_integral or f.content() != 1:
            continue
        if pr.discriminant(f) == 0:
            continue
        assert pr.point_height_bound_check(f, f, 128)
        done += 1


def test_family_membership():
    fp = pr.FamilyParams(4, 0.5)
    assert pr.family_membership(X4_3Y4, fp)           # 6912 >= 4^5.5
    red = pr.form_from_linear_factors([(1, 0), (1, 1), (1, -1), (1, 2)])
    assert not pr.family_membership(red, pr.FamilyParams(3, 0.5))
    # tiny discriminant vs large cutoff
    small = pr.BinaryForm(4, (1, 0, 0, 0, 1))         # disc 256
    assert not pr.family_membership(small, pr.FamilyParams(50, 0.1))
    with pytest.raises(pr.HeightExceedsCutoff):
        pr.family_membership(X4_3Y4, pr.FamilyParams(2, 0.5))
    # the family needs Ht(f) < X, so Ht(f) == X is outside it
    with pytest.raises(pr.HeightExceedsCutoff, match="below X"):
        pr.family_membership(X4_3Y4, pr.FamilyParams(3, 0.5))


def test_kappa_constant():
    with mp.workprec(80):
        val = pr.kappa_constant(4, 3)
        expected = 4 * mp.log(16 * 512) + 19 * mp.log(20) / 2
        assert abs(val - expected) < 1e-18
    assert pr.kappa_constant(4, 2) < pr.kappa_constant(4, 3) \
        < pr.kappa_constant(4, 4)
    for n in (2, 4, 6):
        for m in (1, 3, 5):
            assert pr.kappa_constant(n, m) > 0


def test_prop_bound_example():
    fp = pr.FamilyParams(4, 0.5)
    chk = pr.prop_bound_check(X4_3Y4, pr.BinaryForm(1, (1, -1)), fp, 128)
    assert chk.holds


def test_prop_bound_requires_family():
    fp = pr.FamilyParams(50, 0.1)
    f = pr.BinaryForm(4, (1, 0, 0, 0, 1))
    with pytest.raises(pr.DomainError):
        pr.prop_bound_check(f, pr.BinaryForm(1, (1, -1)), fp, 128)


def test_vector_length_bound_example():
    fp = pr.FamilyParams(4, 0.5)
    ds = pr.DivisorSpec(X4_3Y4, pr.BinaryForm(1, (1, -1)), Fraction(2))
    chk = pr.vector_length_bound_check(ds, fp, 128)
    assert chk.holds
    assert "integralized" in chk.flags
    prop = pr.prop_bound_check(X4_3Y4, pr.BinaryForm(1, (1, -1)), fp, 128)
    with mp.workprec(160):
        assert abs(chk.lhs - prop.lhs) < 1e-6
        assert abs(chk.rhs - prop.rhs) < 1e-12


def test_vector_length_error_propagates():
    f = pr.form_from_linear_factors([(1, 2), (1, 3), (1, 1), (1, -1)])
    ds = pr.DivisorSpec(f, pr.BinaryForm(1, (1, -2)), Fraction(1))
    fp = pr.FamilyParams(4, 0.5)
    with pytest.raises(pr.DomainError):
        pr.vector_length_bound_check(ds, fp, 128)


def test_inequalities_random_family():
    rng = random.Random(62)
    for _ in range(8):
        ds, fp = rand_family_instance(rng, 10, 0.3)
        prop = pr.prop_bound_check(ds.f, ds.U, fp, 128)
        vec = pr.vector_length_bound_check(ds, fp, 128)
        assert prop.holds and vec.holds
        with mp.workprec(160):
            assert abs(prop.lhs - vec.lhs) < 1e-6


def test_vector_bound_reads_the_rational_pencil(monkeypatch):
    """The vector bound is computed on the rational orbit pencil; the
    integralization search only sets the flags.  Where the search
    succeeds, the lhs measured on the integral pencil with the transported
    vector agrees within n * error_bound; where it fails, lhs, rhs and
    holds are unchanged and the only flag is rational_pencil."""
    rng = random.Random(64)
    cases = [rand_family_instance(rng, 10, 0.3) for _ in range(6)]
    checks = [pr.vector_length_bound_check(ds, fp, 128) for ds, fp in cases]
    for (ds, fp), chk in zip(cases, checks):
        assert chk.flags[-1] == "integralized"
        n = ds.f.degree
        p, one_bar = pr.pencil_from_datum(pr.datum_from_divisor(ds))
        res = pr.integralize(p)
        H = pr.reduction_covariant(res.pencil, 128)
        with mp.workprec(160):
            q = form_norm(H, res.transport(one_bar), 128)
            det_h, _ = covariant.gram_det_with_error(H)
            lhs = n * mp.log(q) - mp.log(det_h)
            assert abs(lhs - chk.lhs) <= n * H.error_bound

    def not_found(*args, **kwargs):
        raise pr.NotFound("search disabled")

    monkeypatch.setattr(heights, "integralize", not_found)
    for (ds, fp), chk in zip(cases, checks):
        alone = pr.vector_length_bound_check(ds, fp, 128)
        assert (alone.lhs, alone.rhs, alone.holds) == (
            chk.lhs, chk.rhs, chk.holds)
        assert alone.flags == ("rational_pencil",)


def test_bound_check_json():
    fp = pr.FamilyParams(4, 0.5)
    chk = pr.prop_bound_check(X4_3Y4, pr.BinaryForm(1, (1, -1)), fp, 128)
    d = chk.to_json_dict()
    assert set(d) == {"lhs", "rhs", "holds", "flags"}


def test_height_check_tests_membership_once(monkeypatch, capsys):
    """The CLI height-check decides family membership once for both
    bounds; each public check still decides it itself."""
    calls = []
    membership = heights.family_membership

    def counting(*args, **kwargs):
        calls.append(args[0])
        return membership(*args, **kwargs)

    monkeypatch.setattr(heights, "family_membership", counting)
    payload = {"f": {"degree": 4, "coeffs": ["1", "0", "0", "0", "3"]},
               "U": {"degree": 1, "coeffs": ["1", "-1"]}, "w": "2"}
    assert cli.main(["height-check", "--cutoff-X", "4", "--delta", "0.5",
                     "--input-json", json.dumps(payload)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["prop_bound"]["holds"] and out["vector_length_bound"]["holds"]
    assert calls == [X4_3Y4]
    ds = pr.DivisorSpec(X4_3Y4, pr.BinaryForm(1, (1, -1)), Fraction(2))
    pr.vector_length_bound_check(ds, pr.FamilyParams(4, 0.5), 128)
    assert calls == [X4_3Y4, X4_3Y4]
