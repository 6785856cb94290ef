"""Desk-scale sampling harness for covariant statistics.

Pencils are drawn with independent uniform entries in a box [-B, B]; this is
a qualitative stand-in for ordering by invariant-form height, and every
serialized output records that caveat.  Sampling is reproducible: item i of a
batch with seed s is generated from its own random.Random stream seeded with
splitmix64(s XOR golden*i), so any item can be regenerated from (seed, index)
alone, without drawing the items before it.
"""

import math
import random
from dataclasses import dataclass

import mpmath as mp

from .covariant import det_identity, reduction_covariant
from .errors import EmptyStatistics
from .forms import BinaryForm, discriminant, height, real_root_count
from .heights import FamilyParams, family_membership
from .pencil import Pencil, adjugate_pencil, splitmix64
from .reduce import exact_gram, lll_gram

MEASURE_CAVEAT = ("entries uniform in a box, not the height-ball measure; "
                  "qualitative analogue only")

_GOLDEN = 0x9E3779B97F4A7C15


def item_rng(seed, index):
    """Per-item generator; the documented stream-splitting rule."""
    return random.Random(splitmix64(seed ^ _GOLDEN * index))


@dataclass(frozen=True)
class SampleItem:
    index: int
    pencil: Pencil
    height: int
    nondegenerate: bool
    m: int = -1                     # real_root_count / 2
    sv_ratio: object = None         # shortest norm^(1/2) / det^(1/2n)
    t: tuple = ()                   # Iwasawa t of the LLL-reduced covariant
    det_identity_ok: bool = False

    def to_json_dict(self):
        d = {"index": self.index, "pencil": self.pencil.to_json_dict(),
             "height": self.height, "nondegenerate": self.nondegenerate}
        if self.nondegenerate:
            d["m"] = self.m
            d["sv_ratio"] = mp.nstr(self.sv_ratio, 17)
            d["t"] = [mp.nstr(x, 17) for x in self.t]
            d["det_identity_ok"] = self.det_identity_ok
        return d


@dataclass(frozen=True)
class SampleBatch:
    n: int
    box_bound: int
    count: int
    seed: int
    precision: int
    items: tuple

    def nondegenerate_items(self):
        return [it for it in self.items if it.nondegenerate]

    def to_json_dict(self):
        return {"metadata": {"n": self.n, "box_bound": self.box_bound,
                             "count": self.count, "seed": self.seed,
                             "precision": self.precision,
                             "measure": MEASURE_CAVEAT},
                "items": [it.to_json_dict() for it in self.items]}


def _random_symmetric(rng, n, B):
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = rng.randint(-B, B)
    return tuple(tuple(row) for row in M)


def sample_pencils(n, B, count, seed, precision=128) -> SampleBatch:
    """Batch of `count` pencils with entries uniform in [-B, B].

    Degenerate draws are kept (flagged) but carry no covariant summary.
    """
    items = []
    for idx in range(count):
        rng = item_rng(seed, idx)
        A = _random_symmetric(rng, n, B)
        Bm = _random_symmetric(rng, n, B)
        p = Pencil(n, A, Bm)
        # one node pass gives f here and the probe column to
        # simultaneous_diagonalize
        f, _ = adjugate_pencil(p)
        ht = height(f)
        if discriminant(f) == 0:
            items.append(SampleItem(idx, p, int(ht), False))
            continue
        m2 = real_root_count(f, precision)
        H = reduction_covariant(p, precision)
        lattice = lll_gram(*exact_gram(H, precision))
        _, _, ok = det_identity(H, f, precision)
        items.append(SampleItem(idx, p, int(ht), True, m2 // 2,
                                lattice.ratio(lattice.shortest()[1], precision),
                                lattice.iwasawa_t(precision), ok))
    return SampleBatch(n, B, count, seed, precision, tuple(items))


def small_vector_frequency(batch: SampleBatch, eps_list):
    """Fraction of nondegenerate items whose covariant has an eps-small
    vector, for each eps.  Monotone in eps by construction (same ratios)."""
    good = batch.nondegenerate_items()
    if not good:
        raise EmptyStatistics("batch has no nondegenerate items")
    rows = []
    for eps in eps_list:
        hits = sum(1 for it in good if it.sv_ratio < mp.mpf(eps))
        rows.append((float(eps), hits / len(good), len(good)))
    return rows


def component_histogram(batch: SampleBatch):
    """Counts of items by m = (number of real roots)/2."""
    out = {}
    for it in batch.nondegenerate_items():
        out[it.m] = out.get(it.m, 0) + 1
    return dict(sorted(out.items()))


def density_trend(n, delta, X_list, samples_per_X, seed):
    """Fraction of height-<X forms passing the family filter, per X."""
    rows = []
    for xi, X in enumerate(X_list):
        if samples_per_X <= 0:
            continue
        hits = 0
        fp = FamilyParams(X, delta)
        bound = math.ceil(X) - 1    # the largest height below X
        for idx in range(samples_per_X):
            rng = item_rng(seed ^ (0xD1CE + xi), idx)
            coeffs = [rng.randint(-bound, bound) for _ in range(n + 1)]
            f = BinaryForm(n, tuple(coeffs))
            if family_membership(f, fp, precision=96):
                hits += 1
        rows.append((float(X), hits / samples_per_X, samples_per_X))
    return rows
