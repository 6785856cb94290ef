"""Exact linear algebra over int / Fraction matrices.

Matrices are lists (or tuples) of rows; rows are lists/tuples of ints or
Fractions.  Everything here is exact; multiprecision floats live elsewhere.
This module owns the exact kernels the others share: the Gram U·M·Uᵀ of a
change of basis (`gram`), the quadratic form xᵀGx (`quad`), the symmetric
matrix of an upper triangle (`symmetric`) and clearing denominators
(`clear_denominators`).
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(M):
    return [list(col) for col in zip(*M)]


def mat_mul(A, B):
    Bt = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in Bt] for row in A]


def mat_vec(M, v):
    return [sum(map(mul, row, v)) for row in M]


def is_symmetric(M):
    n = len(M)
    return all(M[i][j] == M[j][i] for i in range(n) for j in range(i + 1, n))


def symmetric(upper):
    """The symmetric matrix whose row i, from the diagonal on, is upper[i]."""
    n = len(upper)
    return tuple(tuple(upper[min(i, j)][abs(j - i)] for j in range(n))
                 for i in range(n))


def gram(U, M):
    """U·M·Uᵀ for a symmetric M, exactly, as a tuple of rows: the rows of
    U are the coordinates of the new basis.  One product U·M, then the
    upper triangle, mirrored."""
    return gram_of_product(mat_mul(U, M), U)


def gram_of_product(UM, U):
    """U·M·Uᵀ from the product UM = U·M of a symmetric M: the upper
    triangle of UM·Uᵀ, mirrored."""
    n = len(U)
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = sum(map(mul, UM[i], U[j]))
    return tuple(map(tuple, G))


def quad(G, x):
    """xᵀ·G·x, exactly."""
    return sum(map(mul, x, mat_vec(G, x)))


def clear_denominators(M):
    """(d, d·M): d the least common denominator of the int / Fraction
    entries of M, and d·M as integer rows."""
    d = lcm(*(x.denominator for row in M for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in M]


def det_bareiss(M):
    """Fraction-free determinant of a square integer matrix."""
    a = [list(row) for row in M]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
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
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_exact(M):
    """Exact determinant; ints go through Bareiss, Fractions are scaled first."""
    d, scaled = clear_denominators(M)
    det = det_bareiss(scaled)
    return det if d == 1 else Fraction(det, d ** len(M))


def det_adj(M):
    """(det M, adj M) of a square integer matrix by fraction-free
    Gauss-Jordan elimination (Bareiss; Cohen, GTM 138, 2.2) in place.

    On [M | I] each entry is a minor of the row-permuted [M | I], so each
    division is exact, and the right block ends as adj(PM).  Before pivot k
    only its columns < k and the left columns >= k are not multiples of unit
    vectors, so pivot k writes right column k over left column k.  Undoing
    the swaps, adj M = sign·adj(PM)·P.  adj is None when M is singular.
    """
    n = len(M)
    a = [list(row) for row in M]
    perm = list(range(n))
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            perm[k], perm[piv] = perm[piv], perm[k]
            sign = -sign
        rk = a[k]
        pk = rk[k]
        for i in range(n):
            if i != k:
                c = a[i][k]
                a[i] = r = [(pk * x - c * y) // prev for x, y in zip(a[i], rk)]
                r[k] = -c
        rk[k] = prev
        prev = pk
    inv = sorted(range(n), key=perm.__getitem__)
    return sign * prev, [[sign * row[j] for j in inv] for row in a]


def inverse_unimodular(M):
    """Exact inverse of an integer matrix with det = +-1, as integers."""
    d, adj = det_adj(M)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [[d * x for x in row] for row in adj]


def fp_nullspace(M, p):
    """Nullspace basis of M over F_p (rows are vectors)."""
    rows = [[x % p for x in row] for row in M]
    ncols = len(rows[0]) if rows else 0
    pivots = {}
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for c, pr in pivots.items():
            v[c] = (-rows[pr][fc]) % p
        basis.append(v)
    return basis


def kernel_mod(M, m, factors):
    """Row basis of the lattice {x in Z^k : M x == 0 (mod m)}.

    Contains m*Z^k, so the result is k x k of full rank, returned in row HNF.
    Computed one prime power at a time (`_solutions_mod`), then combined by
    CRT; entries stay bounded by the modulus throughout.  factors is
    {prime: exponent} of m.
    """
    k = len(M[0])
    if m == 1:
        return identity_matrix(k)
    K = None
    m_done = 1
    for p, e in sorted(factors.items()):
        q = p ** e
        B = hnf_insert([[q * x for x in row] for row in identity_matrix(k)],
                       _solutions_mod(M, q))
        if K is None:
            K = B
        else:
            K = hnf_insert([[m_done * q * x for x in row]
                            for row in identity_matrix(k)],
                           [[q * x for x in row] for row in K]
                           + [[m_done * x for x in row] for row in B])
        m_done *= q
    return K


def _solutions_mod(M, q):
    """Generators, with q*Z^k, of {x : M x == 0 (mod q)}, q = p^e, by one
    Smith-style elimination of M mod q (Cohen, GTM 138, 2.4).  A pivot of
    least p-adic valuation v (p^v = gcd(entry, q)) divides its row and its
    column; the row operations that clear its column are not kept, the
    column operations that clear its row build V (by columns, invertible
    mod q).  Then x = V·y is a solution iff p^v_j·y_j == 0 at each pivot
    column j: p^(e - v_j) times column j of V and the unpivoted columns.
    """
    k = len(M[0])
    rows = [r for r in ([x % q for x in row] for row in M) if any(r)]
    cols = identity_matrix(k)
    free = set(range(k))
    gens = []
    while rows:
        g, i, j = min((gcd(x, q), i, j) for i, r in enumerate(rows)
                      for j, x in enumerate(r) if x)
        piv = rows.pop(i)
        inv = pow(piv[j] // g, -1, q)
        rest = []
        for r in rows:
            c = r[j] // g * inv % q
            if c:
                r = [(x - c * y) % q for x, y in zip(r, piv)]
            if any(r):
                rest.append(r)
        rows = rest
        free.discard(j)
        vj = cols[j]
        for t in free:
            if piv[t]:
                c = piv[t] // g * inv % q
                cols[t] = [(x - c * y) % q for x, y in zip(cols[t], vj)]
        gens.append([q // g * x for x in vj])
    return gens + [cols[t] for t in sorted(free)]


def _xgcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b) > 0."""
    s, s1, t, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, s, s1, t, t1 = b, a - q * b, s1, s - q * s1, t1, t - q * t1
    return (a, s, t) if a > 0 else (-a, -s, -t)


def hnf_insert(basis, rows):
    """Row HNF of the lattice spanned by a full-rank upper-triangular basis
    with positive diagonal and further rows.  Each row is folded in column
    by column: an extended gcd with the pivot turns the pivot row and the
    row into a unimodular pair, the gcd on the pivot and 0 in the row.
    Entries above each pivot are then reduced into [0, pivot)."""
    B = [list(r) for r in basis]
    k = len(B)
    for row in rows:
        r = list(row)
        for c in range(k):
            x = r[c]
            if not x:
                continue
            piv = B[c]
            b = piv[c]
            if x % b == 0:
                q = x // b
                r = [u - q * v for u, v in zip(r, piv)]
            else:
                g, s, t = _xgcd(b, x)
                bg, xg = b // g, x // g
                B[c] = [s * v + t * u for v, u in zip(piv, r)]
                r = [bg * u - xg * v for u, v in zip(r, piv)]
    for i in range(k):
        p = B[i][i]
        for j in range(i):
            q = B[j][i] // p
            if q:
                B[j] = [u - q * v for u, v in zip(B[j], B[i])]
    return B
