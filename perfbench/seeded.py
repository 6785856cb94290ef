"""Seeded input generators owned by the benchmark.

Every stream is a ``random.Random`` seeded with the string
``"<workload>/<stream>/<seed>"``, so the same seed gives the same inputs on
every machine and the warm-up stream never shares draws with the timed one.
Nothing here imports the test suite: a test edit cannot change the inputs.
"""

import random

from oracle import is_squarefree, invariant_form

TIMED, WARMUP = "timed", "warmup"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def stream(workload, kind, seed):
    return random.Random("%s/%s/%d" % (workload, kind, seed))


def symmetric(rng, n, bound):
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = rng.randint(-bound, bound)
    return tuple(tuple(row) for row in M)


def batch_seeds(workload, kind, seed):
    """Endless seeds for ``sample_pencils`` batches."""
    rng = stream(workload, kind, seed)
    while True:
        yield rng.getrandbits(63)


def _splitmix64(x):
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def sampled_pencil(batch_seed, index, n, bound):
    """(A, B) that ``sample_pencils`` draws as item `index` of a batch, by its
    documented rule: one random.Random per item, seeded with
    splitmix64(seed XOR golden*index); A is drawn before B."""
    rng = random.Random(_splitmix64(
        (batch_seed & _MASK64) ^ ((_GOLDEN * index) & _MASK64)))
    return symmetric(rng, n, bound), symmetric(rng, n, bound)


def nondegenerate_pencils(workload, kind, seed, sizes, bound):
    """Endless (A, B) integer pencils whose invariant form is squarefree,
    cycling through the dimensions in `sizes`."""
    rng = stream(workload, kind, seed)
    i = 0
    while True:
        n = sizes[i % len(sizes)]
        while True:
            A, B = symmetric(rng, n, bound), symmetric(rng, n, bound)
            if is_squarefree(invariant_form(A, B)):
                break
        yield A, B
        i += 1


def planted_quartics(workload, kind, seed, classes, in_family):
    """Endless (f, a, beta, X): quartics f with the rational point
    (a : 1 : beta) on y^2 = f(x, 1) and height below X.  Item i takes its
    cutoff X, leading coefficient f_0 and beta from classes[i % len(classes)],
    since those decide most of an instance's cost.  `in_family(f, X)` is the
    membership filter of F_delta(X); draws it rejects are skipped."""
    rng = stream(workload, kind, seed)
    i = 0
    while True:
        X, f0, beta = classes[i % len(classes)]
        bound = X - 1
        while True:
            a = rng.randint(-2, 2)
            f1, f2, f3 = (rng.randint(-bound, bound) for _ in range(3))
            f4 = beta ** 2 - (f0 * a ** 4 + f1 * a ** 3 + f2 * a ** 2 + f3 * a)
            f = (f0, f1, f2, f3, f4)
            if abs(f4) <= bound and is_squarefree(f) and in_family(f, X):
                break
        yield f, a, beta, X
        i += 1
