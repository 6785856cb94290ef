"""Exact linear algebra over int / Fraction matrices.

Matrices are lists (or tuples) of rows; rows are lists/tuples of ints or
Fractions.  Everything here is exact; multiprecision floats live elsewhere.
"""

from fractions import Fraction
from math import gcd



def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(M):
    return [list(col) for col in zip(*M)]


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    Bt = list(zip(*B))
    return [[sum(A[i][t] * Bt[j][t] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_vec(M, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in M]


def is_symmetric(M):
    n = len(M)
    return all(M[i][j] == M[j][i] for i in range(n) for j in range(i + 1, n))


def congruent(S, A):
    """S^T A S for column-basis change S."""
    return mat_mul(transpose(S), mat_mul(A, S))


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


def _denominator_lcm(M):
    d = 1
    for row in M:
        for x in row:
            if isinstance(x, Fraction):
                d = d * x.denominator // gcd(d, x.denominator)
    return d


def det_exact(M):
    """Exact determinant; ints go through Bareiss, Fractions are scaled first."""
    n = len(M)
    d = _denominator_lcm(M)
    if d == 1:
        return det_bareiss([[int(x) for x in row] for row in M])
    scaled = [[int(x * d) for x in row] for row in M]
    return Fraction(det_bareiss(scaled), d ** n)


def det_adj(M):
    """(det M, adj M) of a square integer matrix by fraction-free
    Gauss-Jordan elimination on [M | I] (Bareiss; Cohen, GTM 138, 2.2).

    Every intermediate entry is a minor of the row-permuted [M | I], so each
    division is exact; at the end the left block is det(PM)·I and the right
    block det(PM)·M^-1.  adj is None when M is singular.
    """
    n = len(M)
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(M)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        rk = a[k]
        pk = rk[k]
        for i in range(n):
            if i != k:
                c = a[i][k]
                a[i] = [(pk * x - c * y) // prev for x, y in zip(a[i], rk)]
        prev = pk
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


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
    Computed one prime power at a time (F_p nullspaces lifted through p^e),
    then combined by CRT; entries stay bounded by the modulus throughout.
    factors is {prime: exponent} of m.
    """
    k = len(M[0])
    if m == 1:
        return identity_matrix(k)
    K = None
    m_done = 1
    for p, e in sorted(factors.items()):
        q = p ** e
        B = identity_matrix(k)
        for j in range(1, e + 1):
            MBt = mat_mul(M, transpose(B))
            step = p ** (j - 1)
            C = [[(x // step) % p for x in row] for row in MBt]
            N = fp_nullspace(C, p)
            gens = [mat_mul([y], B)[0] for y in N]
            gens += [[p * x for x in row] for row in B]
            gens += [[(p ** j) if t == s else 0 for t in range(k)]
                     for s in range(k)]
            B = row_hnf(gens)
        if K is None:
            K = B
        else:
            gens = [[q * x for x in row] for row in K]
            gens += [[m_done * x for x in row] for row in B]
            gens += [[(m_done * q) if t == s else 0 for t in range(k)]
                     for s in range(k)]
            K = row_hnf(gens)
        m_done *= q
    return K


def row_hnf(rows):
    """Row Hermite normal form by direct gcd elimination; zero rows dropped."""
    work = [list(r) for r in rows if any(x != 0 for x in r)]
    if not work:
        return []
    k = len(work[0])
    out = []
    col = 0
    while work and col < k:
        having = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not having:
            col += 1
            continue
        while len(having) > 1:
            having.sort(key=lambda r: abs(r[col]))
            base = having[0]
            new_having = [base]
            for r in having[1:]:
                q = r[col] // base[col]
                reduced = [a - q * b for a, b in zip(r, base)]
                if reduced[col] != 0:
                    new_having.append(reduced)
                elif any(reduced):
                    rest.append(reduced)
            having = new_having
        piv = having[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        out.append(piv)
        work = rest
        col += 1
    pivots = [next(i for i, x in enumerate(r) if x != 0) for r in out]
    # reduce above each pivot, leftmost pivot first so later columns settle
    for i in range(len(out)):
        p = pivots[i]
        for r in range(i):
            q = out[r][p] // out[i][p]
            if q:
                out[r] = [a - q * b for a, b in zip(out[r], out[i])]
    return out

