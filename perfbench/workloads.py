"""The three workloads: how each builds its items, runs one, and checks it.

Each workload is a closed loop with one caller in one process: the next item
starts only when the previous one returns.  ``run`` is the only part that is
timed.  ``check`` returns how many of the item's operations failed; it uses
the exact references in `oracle`, never the library's own answers.
Library entry points are looked up on their module at call time, so a tracer
that replaces them sees these calls too.
"""

import contextlib
import io
import json

import oracle
import seeded

import pencilred.cli as cli
import pencilred.equidist as equidist
import pencilred.heights as heights
import pencilred.reduce as reduce_
from pencilred.forms import BinaryForm
from pencilred.pencil import Pencil


class Workload:
    """Defaults: an item is one operation, and nothing is degenerate."""

    def size(self, item):
        return 1

    def degenerate(self, out):
        return 0


class SampleN4(Workload):
    name, tag, unit = "sample-n4", "sample", "items"
    precision = 96
    n, box, batch = 4, 3, 16
    eps_list = (0.8, 0.4, 0.2, 0.1, 0.05)
    # Items per second of timed loop, generously, to size the input pool.
    max_rate = 60

    def items(self, kind, seed):
        return seeded.batch_seeds(self.name, kind, seed)

    def size(self, item):
        return self.batch

    def group(self, item):
        return "n4"

    def run(self, batch_seed):
        b = equidist.sample_pencils(self.n, self.box, self.batch, batch_seed,
                                    precision=self.precision)
        return (b, equidist.small_vector_frequency(b, self.eps_list),
                equidist.component_histogram(b))

    def check(self, batch_seed, out):
        batch, freq, hist = out
        failed, ms = 0, {}
        for i, it in enumerate(batch.items):
            A, B = seeded.sampled_pencil(batch_seed, i, self.n, self.box)
            f = oracle.invariant_form(A, B)
            nondeg = oracle.is_squarefree(f)
            ok = (it.pencil.A == A and it.pencil.B == B
                  and it.nondegenerate == nondeg
                  and it.height == max(abs(c) for c in f))
            if nondeg:
                m = oracle.real_root_count(f) // 2
                ms[m] = ms.get(m, 0) + 1
                ok = ok and it.m == m and it.det_identity_ok is True
            failed += not ok
        good = sum(ms.values())
        fracs = [fr for _, fr, _ in freq]
        batch_ok = (len(batch.items) == self.batch
                    and [e for e, _, _ in freq] == list(self.eps_list)
                    and all(c == good for _, _, c in freq)
                    and all(a >= b for a, b in zip(fracs, fracs[1:]))
                    and hist == dict(sorted(ms.items())))
        return failed if batch_ok else self.batch

    def degenerate(self, out):
        return sum(not it.nondegenerate for it in out[0].items)


class ReduceN6to10(Workload):
    name, tag, unit = "reduce-n6-10", "reduce", "pencils"
    precision = 256
    sizes, box, eps = (6, 8, 10), 3, 0.5
    max_rate = 5

    def items(self, kind, seed):
        for A, B in seeded.nondegenerate_pencils(self.name, kind, seed,
                                                 self.sizes, self.box):
            yield Pencil(len(A), A, B)

    def group(self, p):
        return "n%d" % p.n

    def run(self, p):
        res = reduce_.lll_reduce(p, precision=self.precision)
        return res, reduce_.cusp_membership(res.gram_reduced, eps=self.eps,
                                            precision=self.precision)

    def check(self, p, out):
        res, in_cusp = out
        g = [list(row) for row in res.g.entries]
        gt = oracle.transpose(g)
        R = res.reduced
        # reduced = g.p = (g^-T A g^-1, g^-T B g^-1)  <=>  g^T R g = p
        ok = (oracle.det(g) in (1, -1) and R.n == p.n
              and oracle.matmul(gt, oracle.matmul(R.A, g)) == list(map(list, p.A))
              and oracle.matmul(gt, oracle.matmul(R.B, g)) == list(map(list, p.B))
              and oracle.invariant_form(R.A, R.B)
              == oracle.invariant_form(p.A, p.B)
              and isinstance(in_cusp, bool))
        return 0 if ok else 1


class DivisorHeights(Workload):
    name, tag, unit = "divisor-heights", "heights", "instances"
    precision = 128
    delta = 0.3
    # (X, f_0, beta) in turn: every cutoff, leading coefficient and point
    # height, so each run holds the same mix of cheap and costly instances.
    classes = [(X, f0, beta) for beta in (1, 2, 3) for f0 in (1, 2, 3, 4, 5)
               for X in (10, 100)]
    max_rate = 5

    def items(self, kind, seed):
        def in_family(f, X):
            return heights.family_membership(
                BinaryForm(4, f), heights.FamilyParams(X, self.delta),
                precision=96)
        for f, a, beta, X in seeded.planted_quartics(
                self.name, kind, seed, self.classes, in_family):
            payload = {"f": {"degree": 4, "coeffs": [str(c) for c in f]},
                       "U": {"degree": 1, "coeffs": ["1", str(-a)]},
                       "w": str(beta)}
            argv = ["--precision", str(self.precision), "height-check",
                    "--cutoff-X", str(X), "--delta", str(self.delta),
                    "--input-json", json.dumps(payload)]
            yield "X%d_f%d_w%d" % (X, f[0], beta), argv

    def group(self, item):
        return item[0]

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(item[1])
        return code, buf.getvalue()

    def check(self, item, out):
        code, text = out
        try:
            report = json.loads(text)
            prop = report["prop_bound"]
            vec = report["vector_length_bound"]
            ok = (code == 0 and prop["holds"] is True and vec["holds"] is True
                  and abs(float(prop["lhs"]) - float(vec["lhs"])) <= 1e-6)
        except (ValueError, KeyError, TypeError):
            ok = False
        return 0 if ok else 1


WORKLOADS = {w.name: w for w in (SampleN4(), ReduceN6to10(), DivisorHeights())}
