"""Tests of the sampling harness: determinism, monotone statistics, trends."""

import json

import pytest

import pencilred as pr
import pencilred.equidist
import pencilred.forms
import pencilred.linalg
import pencilred.pencil
import pencilred.polys
import pencilred.reduce


def small_batch():
    return pr.sample_pencils(4, 3, 60, seed=42, precision=96)


def test_determinism_bit_identical():
    b1 = pr.sample_pencils(4, 3, 25, seed=7, precision=96)
    b2 = pr.sample_pencils(4, 3, 25, seed=7, precision=96)
    assert json.dumps(b1.to_json_dict(), sort_keys=True) == \
        json.dumps(b2.to_json_dict(), sort_keys=True)
    b3 = pr.sample_pencils(4, 3, 25, seed=8, precision=96)
    assert json.dumps(b1.to_json_dict(), sort_keys=True) != \
        json.dumps(b3.to_json_dict(), sort_keys=True)


def test_empty_batch():
    batch = pr.sample_pencils(4, 3, 0, seed=1)
    assert batch.items == ()
    with pytest.raises(pr.EmptyStatistics):
        pr.small_vector_frequency(batch, [0.5])
    assert pr.component_histogram(batch) == {}


def test_all_degenerate_batch():
    I4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    p = pr.Pencil(4, I4, I4)   # (x-y)^4 up to sign: degenerate
    item = pr.SampleItem(0, p, 1, False)
    batch = pr.SampleBatch(4, 1, 1, 0, 96, (item,))
    with pytest.raises(pr.EmptyStatistics):
        pr.small_vector_frequency(batch, [0.5])


def test_frequency_monotone():
    batch = small_batch()
    eps = [2.0, 0.8, 0.4, 0.2, 0.1, 0.05, 0.01]
    rows = pr.small_vector_frequency(batch, eps)
    freqs = [fr for _, fr, _ in rows]
    assert freqs == sorted(freqs, reverse=True)
    assert all(c == len(batch.nondegenerate_items()) for _, _, c in rows)


def test_component_histogram():
    batch = small_batch()
    hist = pr.component_histogram(batch)
    assert sum(hist.values()) == len(batch.nondegenerate_items())
    assert all(0 <= m <= 2 for m in hist)
    # diagonal pencils with all-real spectra sit at m = n/2
    I4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    Bd = tuple(tuple((2, 3, 5, -1)[i] * int(i == j) for j in range(4))
               for i in range(4))
    p = pr.Pencil(4, I4, Bd)
    assert pr.real_root_count(pr.invariant_form(p)) == 4


def test_batch_det_identity_piggyback():
    batch = small_batch()
    assert all(it.det_identity_ok for it in batch.nondegenerate_items())


def test_density_trend():
    rows = pr.density_trend(4, 0.3, [10, 1000], 40, seed=12)
    assert len(rows) == 2
    assert rows[1][1] > rows[0][1]
    assert pr.density_trend(4, 0.3, [10], 0, seed=1) == []


def test_density_trend_draws_every_height_below_X(monkeypatch):
    """At a cutoff X the coefficients reach ceil(X) - 1, the largest height
    below X: X = 10.5 draws forms of height 10.  For 0 < X < 1 the only
    such form is 0, which fails the filter."""
    heights = []
    membership = pencilred.equidist.family_membership
    monkeypatch.setattr(pencilred.equidist, "family_membership",
                        lambda f, fp, precision: heights.append(
                            pencilred.forms.height(f))
                        or membership(f, fp, precision))
    pr.density_trend(4, 0.3, [10.5], 60, seed=12)
    assert max(heights) == 10
    heights.clear()
    assert pr.density_trend(4, 0.3, [0.5], 3, seed=12) == [(0.5, 0.0, 3)]
    assert heights == [0, 0, 0]


def test_density_delta_zero_edge():
    strict = pr.density_trend(4, 0.0, [30], 60, seed=13)
    loose = pr.density_trend(4, 0.5, [30], 60, seed=13)
    assert strict[0][1] <= loose[0][1]


def test_item_json_schema():
    batch = pr.sample_pencils(4, 2, 5, seed=3, precision=96)
    d = batch.to_json_dict()
    assert d["metadata"]["measure"].startswith("entries uniform")
    for item in d["items"]:
        assert {"index", "pencil", "height", "nondegenerate"} <= set(item)


def test_one_lll_per_item(monkeypatch):
    """Each nondegenerate item reduces its covariant once; the shortest
    vector and the Iwasawa t both read that one basis."""
    calls = []
    lll_gram = pencilred.reduce.lll_gram

    def counting(*args, **kwargs):
        calls.append(args)
        return lll_gram(*args, **kwargs)

    monkeypatch.setattr(pencilred.reduce, "lll_gram", counting)
    monkeypatch.setattr(pencilred.equidist, "lll_gram", counting)
    batch = pr.sample_pencils(4, 3, 12, seed=5, precision=96)
    assert len(batch.nondegenerate_items()) > 0
    assert len(calls) == len(batch.nondegenerate_items())


def test_sv_ratio_agrees_with_epsilon_small_test():
    """The sampler's ratio is the one the eps-small test compares."""
    batch = pr.sample_pencils(4, 3, 12, seed=5, precision=96)
    items = batch.nondegenerate_items()
    assert items
    for it in items:
        H = pr.reduction_covariant(it.pencil, 96)
        for eps in (0.8, 0.4, 0.2, 0.1, 0.05):
            assert (it.sv_ratio < eps) == pr.epsilon_small_test(H, eps, 96)


def _clear_node_caches():
    for fn in (pencilred.pencil.adjugate_pencil,
               pencilred.pencil.invariant_form, pencilred.forms.discriminant):
        fn.cache_clear()


def test_one_adjugate_pass_per_item(monkeypatch):
    """The sampler reads f off the column pass, so each matrix k·A - B is
    eliminated by linalg.bareiss with the probe block w at most once per
    item, a nondegenerate item needs n nonsingular ones for its null
    vectors, no item falls back to the whole adjugate (the block I), and
    the only determinants without a block left are the (n+1)-th node and
    the discriminant's Bezout matrix."""
    calls, dets, blocks = [], [], []
    kernel = pencilred.linalg.bareiss
    w = pencilred.pencil.probe(4)

    def counting(M, W=None):
        d, adj = kernel(M, W)
        if W is None:
            dets.append(M)
        elif W == w:
            calls.append((tuple(map(tuple, M)), adj is not None))
        else:
            blocks.append(W)
        return d, adj

    _clear_node_caches()
    monkeypatch.setattr(pencilred.linalg, "bareiss", counting)
    batch = pr.sample_pencils(4, 3, 12, seed=5, precision=96)
    good = len(batch.nondegenerate_items())
    assert good > 0
    assert blocks == []
    assert len(calls) == len(set(calls))
    assert sum(ok for _, ok in calls) == 4 * good
    assert len(dets) <= 2 * good


def test_escalated_diagonalization_reuses_node_pass(monkeypatch):
    """simultaneous_diagonalize at a doubled precision reads the cached
    column pencil instead of eliminating the nodes again."""
    p = pr.sample_pencils(4, 3, 1, seed=5, precision=96).items[0].pencil
    _clear_node_caches()
    pr.simultaneous_diagonalize(p, 96)
    calls = []
    kernel = pencilred.linalg.bareiss

    def counting(M, W=None):
        if W is not None:
            calls.append(M)
        return kernel(M, W)

    monkeypatch.setattr(pencilred.linalg, "bareiss", counting)
    pr.simultaneous_diagonalize(p, 192)
    assert calls == []


def test_sampler_does_no_polynomial_division(monkeypatch):
    """The real root count is read off the certified roots the covariant
    uses, so a batch runs without exact polynomial division."""
    def forbidden(*args):
        raise AssertionError("polys.pdivmod called")

    monkeypatch.setattr(pencilred.polys, "pdivmod", forbidden)
    batch = pr.sample_pencils(4, 3, 20, seed=7, precision=96)
    assert len(batch.nondegenerate_items()) > 0
