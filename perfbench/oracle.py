"""Exact reference computations that the benchmark checks pencilred against.

They are written independently of the library: an integer Bareiss
determinant, Newton interpolation for the invariant form, a Euclidean gcd for
squarefreeness and a Sturm sequence for real root counts.  They run after the
timed loop, never inside it.
"""

from fractions import Fraction


def det(M):
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(row) for row in M]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def matmul(A, B):
    Bt = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) for col in Bt] for row in A]


def transpose(M):
    return [list(col) for col in zip(*M)]


def invariant_form(A, B):
    """Coefficients (f_0, ..., f_n) of (-1)^(n(n-1)/2) det(Ax - By), where
    f_i multiplies x^(n-i) y^i."""
    n = len(A)
    nodes = list(range(n + 1))
    vals = [Fraction(det([[k * a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(A, B)])) for k in nodes]
    # Newton divided differences, then expand into ascending powers of k
    dd = vals[:]
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - level])
    poly = [dd[n]]
    for i in range(n - 1, -1, -1):
        shifted = [Fraction(0)] + poly            # k * poly
        poly = [s - nodes[i] * c for s, c in zip(shifted, poly + [0])]
        poly[0] += dd[i]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    if any(c.denominator != 1 for c in poly):
        raise ArithmeticError("interpolated invariant form is not integral")
    # det(Ax - By) = sum_j c_j x^j y^(n-j): f_i is c_(n-i)
    return tuple(sign * int(poly[n - i]) for i in range(n + 1))


def _trim(p):
    """Descending coefficients without leading zeros ([] is the zero poly)."""
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return list(p[i:])


def _rem(p, q):
    p = [Fraction(c) for c in _trim(p)]
    q = _trim(q)
    while len(p) >= len(q) and p:
        factor = p[0] / q[0]
        for i in range(len(q)):
            p[i] -= factor * q[i]
        p = _trim(p)
    return p


def _deriv(p):
    d = len(p) - 1
    return [c * (d - i) for i, c in enumerate(p[:-1])]


def _gcd(p, q):
    p, q = _trim(p), _trim(q)
    while q:
        p, q = q, _rem(p, q)
    return p


def is_squarefree(f):
    """True iff the binary form has no repeated projective root, which is
    exactly when its discriminant is nonzero."""
    if len(f) > 2 and f[0] == 0 and f[1] == 0:
        return False                            # double root at infinity
    g = _trim(f)
    if not g:
        return False
    return len(_gcd(g, _deriv(g))) <= 1


def real_root_count(f):
    """Number of real projective roots of a squarefree form (Sturm)."""
    g = _trim(f)
    chain = [g, _deriv(g)]
    while len(chain[-1]) > 1:
        r = _rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def changes(signs):
        signs = [s for s in signs if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def sign(x):
        return (x > 0) - (x < 0)

    at_pos = [sign(p[0]) for p in chain]
    at_neg = [sign(p[0]) * (-1) ** (len(p) - 1) for p in chain]
    return changes(at_neg) - changes(at_pos) + (1 if f[0] == 0 else 0)
