"""Pairs of symmetric matrices, the unimodular action, and the invariant form.

The group acts by g . (A, B) = (g^-T A g^-1, g^-T B g^-1), the Grams
`linalg.gram` of the basis g^-T; the invariant binary form is
f_{A,B}(x,y) = (-1)^(n(n-1)/2) det(Ax - By).  Both it and the adjugate
pencil times a fixed block, adj(Ax - By)·W, are interpolated from
`linalg.bareiss` at integer nodes, on the integral pencil (aA, aB) of
`integral`.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import DimensionMismatch
from .forms import BinaryForm, discriminant, parse_number


def _norm_entry(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


@dataclass(frozen=True)
class Pencil:
    n: int
    A: tuple
    B: tuple

    def __post_init__(self):
        if self.n <= 0 or self.n % 2:
            raise ValueError("n must be a positive even integer")
        A = tuple(tuple(_norm_entry(x) for x in row) for row in self.A)
        B = tuple(tuple(_norm_entry(x) for x in row) for row in self.B)
        if len(A) != self.n or len(B) != self.n or any(
                len(r) != self.n for r in A + B):
            raise DimensionMismatch("matrices must be n x n")
        if not linalg.is_symmetric(A) or not linalg.is_symmetric(B):
            raise ValueError("matrices must be exactly symmetric")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def is_integral(self):
        return all(isinstance(x, int) for row in self.A + self.B for x in row)

    def to_json_dict(self):
        return {"n": self.n,
                "A": [[str(x) for x in row] for row in self.A],
                "B": [[str(x) for x in row] for row in self.B]}

    @classmethod
    def from_json_dict(cls, d):
        def parse(rows):
            return tuple(tuple(map(parse_number, row)) for row in rows)
        return cls(parse_number(d["n"]), parse(d["A"]), parse(d["B"]))


@dataclass(frozen=True)
class UnimodularMatrix:
    n: int
    entries: tuple
    det: int = field(default=0, init=False)   # set from the entries

    def __post_init__(self):
        entries = tuple(tuple(int(x) for x in row) for row in self.entries)
        if len(entries) != self.n or any(len(r) != self.n for r in entries):
            raise DimensionMismatch("matrix must be n x n")
        d = linalg.bareiss(entries)[0]
        if d not in (1, -1):
            raise ValueError("determinant must be +-1, got %s" % d)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "det", d)

    def inverse(self):
        rows = linalg.inverse_unimodular([list(r) for r in self.entries])
        return UnimodularMatrix(self.n, tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, n):
        return cls(n, tuple(tuple(linalg.identity_matrix(n)[i]) for i in range(n)))


def act(g: UnimodularMatrix, p: Pencil) -> Pencil:
    """g . (A, B) = (g^-T A g^-1, g^-T B g^-1), exact."""
    if g.n != p.n:
        raise DimensionMismatch("group element and pencil dimensions differ")
    # g^-T M g^-1 = U M U^T with U = (g^T)^-1
    U = linalg.inverse_unimodular(linalg.transpose(g.entries))
    return Pencil(p.n, linalg.gram(U, p.A), linalg.gram(U, p.B))


def _disc_sign(n):
    return -1 if (n * (n - 1) // 2) % 2 else 1


def _newton(nodes, values):
    """Ascending coefficients of the polynomial of degree < len(nodes)
    through (nodes[i], values[i]), entrywise for integer vectors.

    The divided differences of an integer polynomial at integer nodes are
    integers, so every division is exact.
    """
    m = len(nodes)
    c = [list(v) for v in values]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            h = nodes[i] - nodes[i - j]
            c[i] = [(x - y) // h for x, y in zip(c[i], c[i - 1])]
    coeffs = [c[m - 1]]
    for i in range(m - 2, -1, -1):
        # coeffs <- coeffs·(X - nodes[i]) + c[i]
        up = [c[i]] + coeffs
        coeffs = [[x - nodes[i] * y for x, y in zip(u, v)]
                  for u, v in zip(up, coeffs)] + [up[-1]]
    return coeffs


def integral(p: Pencil):
    """(a, aA, aB): a the common denominator of the entries, aA and aB as
    integer rows."""
    a, rows = linalg.clear_denominators(p.A + p.B)
    return a, rows[:p.n], rows[p.n:]


def _node(i):
    """The i-th of the integer nodes 0, 1, -1, 2, -2, ..."""
    return (i + 1) // 2 * (1 if i % 2 else -1)


def _at(A, B, k):
    """k·A - B."""
    return [[k * x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def _form(n, a, nodes, dets):
    """f from det(k·aA - aB) at n + 1 integer nodes k, divided by a^n."""
    coeffs = [c for c, in _newton(nodes, [[d] for d in dets])]
    sign, scale = _disc_sign(n), a ** n
    # the coefficient of k^j is the coefficient of x^j y^(n-j)
    return BinaryForm(n, tuple(Fraction(sign * c, scale)
                               for c in reversed(coeffs)))


@lru_cache(maxsize=64)
def invariant_form(p: Pencil) -> BinaryForm:
    """f_{A,B}(x,y) = (-1)^(n(n-1)/2) det(Ax - By), exact.

    With a the common denominator of the entries, (aA, aB) is integral, and
    f interpolates the fraction-free determinants det(k·aA - aB)
    (`linalg.bareiss`) at the n + 1 integer nodes k = 0, 1, -1, 2, ...
    """
    a, A, B = integral(p)
    nodes = [_node(i) for i in range(p.n + 1)]
    return _form(p.n, a, nodes, [linalg.bareiss(_at(A, B, k))[0]
                                 for k in nodes])


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x):
    """The 64-bit output of SplitMix64 (Steele, Lea and Flood, 2014) at
    the state x."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def probe(n):
    """The fixed integer column w (an n x 1 block) that `adjugate_pencil`
    multiplies by: w_i = splitmix64(i + 1) >> 3, 61 bits.  A nonlinear mix,
    so no small integer vector is orthogonal to it by construction, as
    every v with sum (i+1) v_i = 0 is to an arithmetic progression."""
    return tuple((splitmix64(i + 1) >> 3,) for i in range(n))


@lru_cache(maxsize=64)
def adjugate_pencil(p: Pencil, W=None):
    """(f, D): the invariant form and the pencil adj(x·aA - y·aB)·W, W an
    integer block of n rows (tuple of rows); None is the probe column
    `probe(n)`, the column pencil.

    det(k·aA - aB) and adj(k·aA - aB)·W come from one `linalg.bareiss` of
    [k·aA - aB | W] at each integer node k = 0, 1, -1, 2, ... until n nodes
    are nonsingular (all but at most n of them are when f != 0); one more
    determinant (no block) completes the n + 1 that give f.  Newton
    interpolation of the n adjugate products gives the integer n x m
    matrices D_0..D_{n-1} (row-major tuples, since the result is cached and
    shared) with adj(x·aA - y·aB)·W = sum_k x^k y^(n-1-k) D_k.  D is None
    when f = 0.  The sampler reads f off the column pencil and
    `simultaneous_diagonalize` reads its column, both as
    `adjugate_pencil(p)`, so each pencil's nodes are eliminated once; only
    the covariant's fallback passes a block, the identity (the whole
    adjugate pencil).  Callers that need f alone use `invariant_form`.
    """
    n = p.n
    a, A, B = integral(p)
    if W is None:
        W = probe(n)
    nodes, dets, adj_nodes, adjs = [], [], [], []
    while len(nodes) <= n or (len(adjs) < n and any(dets)):
        k = _node(len(nodes))
        d, adj = linalg.bareiss(_at(A, B, k), None if len(adjs) == n else W)
        nodes.append(k)
        dets.append(d)
        if adj is not None:
            adj_nodes.append(k)
            adjs.append([x for row in adj for x in row])
    f = _form(n, a, nodes[:n + 1], dets[:n + 1])
    return f, (tuple(map(tuple, _newton(adj_nodes, adjs))) if adjs
               else None)


def pencil_discriminant(p: Pencil):
    """Delta(A, B) = Delta(f_{A,B}), exact."""
    return discriminant(invariant_form(p))
