"""Exact linear algebra over int / Fraction matrices.

Matrices are lists (or tuples) of rows; rows are lists/tuples of ints or
Fractions.  Everything here is exact; multiprecision floats live elsewhere.
This module owns the exact kernels the others share: U·M·Uᵀ (`gram`), xᵀGx
(`quad`), the symmetric matrix of an upper triangle (`symmetric`), clearing
denominators (`clear_denominators`), (det M, adj(M)·W) by one fraction-free
elimination (`bareiss`) and the row HNF of a triangular basis (`hnf_reduce`).
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


def bareiss(M, W=None):
    """(det M, adj(M)·W) of a square integer matrix M and an integer block W
    with as many rows (Bareiss, Math. Comp. 1968; Cohen, GTM 138, 2.2);
    the block is None when W is None (det M alone) or M is singular.

    Forward elimination of [M | W], a zero pivot swapped for a lower row,
    leaves [U | Y], each entry a minor of the row-permuted [M | W], so each
    division is exact; U_nn = ±det M.  X = adj(M)·W is integral and
    U_ii·X_i = det M·Y_i - sum_{j>i} U_ij·X_j, so back substitution divides
    exactly too."""
    n = len(M)
    a = ([list(r) for r in M] if W is None
         else [list(r) + list(w) for r, w in zip(M, W)])
    m = len(a[0]) if n else 0
    sign, prev = 1, 1
    for k in range(n):
        rk = a[k]
        if not rk[k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0, None
            a[k], a[piv] = a[piv], rk
            rk = a[k]
            sign = -sign
        pk = rk[k]
        for i in range(k + 1, n):
            ri = a[i]
            c = ri[k]
            for j in range(k + 1, m):
                ri[j] = (ri[j] * pk - c * rk[j]) // prev
        prev = pk
    det = sign * prev
    if W is None:
        return det, None
    X = [None] * n
    for i in range(n - 1, -1, -1):
        ri = a[i]
        x = [det * y for y in ri[n:]]
        for j in range(i + 1, n):
            u = ri[j]
            if u:
                xj = X[j]
                for t in range(m - n):
                    x[t] -= u * xj[t]
        X[i] = [s // ri[i] for s in x]
    return det, X


def det_exact(M):
    """Exact determinant; ints go through Bareiss, Fractions are scaled first."""
    d, scaled = clear_denominators(M)
    det = bareiss(scaled)[0]
    return det if d == 1 else Fraction(det, d ** len(M))


def inverse_unimodular(M):
    """Exact inverse of an integer matrix with det = +-1, as integers."""
    d, adj = bareiss(M, identity_matrix(len(M)))
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
    `hnf_reduce` then reduces the entries above each pivot."""
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
    hnf_reduce(B)
    return B


def hnf_reduce(B):
    """Reduce a list of rows B, upper triangular with a positive diagonal,
    to its row HNF in place (Cohen, GTM 138, 2.4): column by column, each
    entry above a pivot into [0, pivot).  Returns the row operations
    (j, i, m), row j -= m·row i with j < i, in the order applied."""
    ops = []
    for i in range(1, len(B)):
        row = B[i]
        piv = row[i]
        for j in range(i):
            m = B[j][i] // piv
            if m:
                B[j] = [u - m * v for u, v in zip(B[j], row)]
                ops.append((j, i, m))
    return ops
