"""Shared generators and independent oracles for the test suite.

Oracles here must stay independent of the code paths they check: the
bivariate determinant is a direct cofactor expansion over a polynomial ring,
reducedness is checked by a vector-based Gram-Schmidt, closed-form root
sets come from radicals, not the library root finder, real roots are
counted by Sturm chains over the rationals, discriminants come from the
Sylvester resultant, and adjugates from elimination on [M | I].
"""

import heapq
import math
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import mpmath as mp

import pencilred as pr
from pencilred import linalg, orbits, polys
from pencilred.roots import man_exp


# ---------------------------------------------------------------------------
# fixed and random objects

# an integral pencil whose rescalings S·(A0, B0)·S are rational
A0 = ((9, 3, 0, 0), (3, 1, 1, 0), (0, 1, 2, 1), (0, 0, 1, 1))
B0 = ((4, 2, 0, 2), (2, 3, 0, 1), (0, 0, 1, 0), (2, 1, 0, 5))


def common_denominator(rows):
    """The lcm of the denominators of the int / Fraction entries."""
    return math.lcm(*(Fraction(x).denominator for row in rows for x in row))


def scaled_pencil(p, s):
    """S·(A, B)·S with S = diag(1/s, s, 1, ..., 1), exact."""
    S = [Fraction(1, s), Fraction(s)] + [1] * (p.n - 2)
    return pr.Pencil(p.n, *(tuple(tuple(S[i] * x * S[j]
                                        for j, x in enumerate(row))
                                  for i, row in enumerate(M))
                            for M in (p.A, p.B)))


def rand_unimodular(rng, n, ops=8, coeff=3):
    """Product of integer shears and swaps; exact determinant +-1."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        kind = rng.random()
        if kind < 0.75:
            c = rng.randint(-coeff, coeff)
            if c:
                for t in range(n):
                    M[i][t] += c * M[j][t]
        elif kind < 0.9:
            M[i], M[j] = M[j], M[i]
        else:
            M[i] = [-x for x in M[i]]
    return pr.UnimodularMatrix(n, tuple(tuple(r) for r in M))


def rand_symmetric(rng, n, bound):
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = rng.randint(-bound, bound)
    return tuple(tuple(r) for r in M)


def rand_pencil(rng, n=4, bound=3, nondegenerate=True):
    while True:
        p = pr.Pencil(n, rand_symmetric(rng, n, bound),
                      rand_symmetric(rng, n, bound))
        if not nondegenerate or pr.pencil_discriminant(p) != 0:
            return p


def rand_monic_form(rng, n, bound=4):
    while True:
        coeffs = (1,) + tuple(rng.randint(-bound, bound) for _ in range(n))
        f = pr.BinaryForm(n, coeffs)
        if pr.discriminant(f) != 0:
            return f


def rand_valid_datum(rng, f, bound=2):
    """alpha = beta^2, z = 1/N(beta): always satisfies the norm equation."""
    n = f.degree
    while True:
        beta = pr.element_from_poly(f, [rng.randint(-bound, bound)
                                        for _ in range(n)])
        nb = pr.norm(beta)
        if nb != 0:
            return pr.OrbitDatum(f, beta * beta, Fraction(1) / nb)


def orbit_pencil_reference(d):
    """The Hankel pencil of a datum (alpha, z), valid or not, from its
    definition: in the basis {z*1, X, ..., X^(n-1)}, A_ij = f0^-1
    tau(alpha b_i b_j) and B_ij = f0^-1 tau(X alpha b_i b_j), with tau the
    X^(n-1) coefficient of the remainder mod f(X,1) by polynomial division
    (not the library's L_f kernel)."""
    f = d.f
    n = f.degree
    f0 = Fraction(f.coeffs[0])
    alpha = list(reversed(d.alpha.coeffs))

    def t(k):
        _, r = polys.pdivmod(alpha + [0] * k, list(f.coeffs))
        return r[0] / f0 if polys.pdeg(r) == n - 1 else Fraction(0)

    def matrix(shift):
        return tuple(tuple(d.z ** ((i == 0) + (j == 0)) * t(i + j + shift)
                           for j in range(n)) for i in range(n))

    return pr.Pencil(n, matrix(0), matrix(1))


def norm_of_one_reference(ds, precision):
    """The root-sum formula of `norm_of_one_formula` in mpc arithmetic: U
    and f_x at each certified root w inside the unit circle, U and f_y at
    (1, 1/w) outside, each form summed term by term at precision + 32."""
    def value(form, x, y):
        n = form.degree
        x, y = mp.mpc(x), mp.mpc(y)
        return sum(mp.mpf(Fraction(c).numerator) / Fraction(c).denominator
                   * x ** (n - i) * y ** i for i, c in enumerate(form.coeffs))

    f = ds.f
    fx, fy = f.partial_x(), f.partial_y()
    with mp.workprec(precision + 32):
        total = mp.mpf(0)
        for e in pr.complex_roots(f, precision).entries:
            w = e.value
            if e.outside:
                total += abs(value(ds.U, 1, 1 / w)) / abs(value(fy, 1, 1 / w))
            else:
                total += abs(value(ds.U, w, 1)) / abs(value(fx, w, 1))
        return +total


def rand_point_divisor(rng, coef=6, beta_max=5, f0_choices=(1, 1, 1, 2)):
    """Quartic with a planted rational point (a : 1 : beta); U = x - a*y."""
    while True:
        a = rng.randint(-3, 3)
        beta = rng.randint(1, beta_max)
        f0 = rng.choice(f0_choices)
        f1, f2, f3 = (rng.randint(-coef, coef) for _ in range(3))
        f4 = beta ** 2 - (f0 * a ** 4 + f1 * a ** 3 + f2 * a ** 2 + f3 * a)
        if abs(f4) > 60:
            continue
        f = pr.BinaryForm(4, (f0, f1, f2, f3, f4))
        if pr.discriminant(f) == 0:
            continue
        return pr.DivisorSpec(f, pr.BinaryForm(1, (1, -a)), Fraction(beta))


def rand_family_instance(rng, X, delta, max_tries=4000):
    """Planted-point quartic inside F_delta(X), with its degree-1 divisor."""
    fp = pr.FamilyParams(X, delta)
    bound = int(X) - 1
    for _ in range(max_tries):
        a = rng.randint(-2, 2)
        beta = rng.randint(1, 3)
        f0 = rng.randint(1, min(bound, 5))
        f1, f2, f3 = (rng.randint(-bound, bound) for _ in range(3))
        f4 = beta ** 2 - (f0 * a ** 4 + f1 * a ** 3 + f2 * a ** 2 + f3 * a)
        if abs(f4) > bound:
            continue
        f = pr.BinaryForm(4, (f0, f1, f2, f3, f4))
        if pr.discriminant(f) == 0:
            continue
        if not pr.family_membership(f, fp, precision=96):
            continue
        return pr.DivisorSpec(f, pr.BinaryForm(1, (1, -a)), Fraction(beta)), fp
    raise AssertionError("family instance sampling failed")


def rand_squarefree_poly(rng, n, bound=128):
    """Descending integer coefficients of a squarefree degree-n polynomial
    with nonzero constant term: up to three rational linear factors
    (b x - a), whose roots a/b often lie close together, times random
    coefficients in [-bound, bound]."""
    while True:
        k = rng.randint(0, min(n, 3))
        c = [rng.randint(-bound, bound) for _ in range(n - k + 1)]
        for _ in range(k):
            b, a = rng.randint(1, 40), rng.randint(-40, 40)
            c = [x * b for x in c + [0]]
            c[1:] = [x - a * y for x, y in zip(c[1:], c)]
        if c[0] and c[-1] and pr.discriminant(pr.BinaryForm(n, tuple(c))):
            return c


def _sign_changes(vals):
    signs = [(v > 0) - (v < 0) for v in vals if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def pderiv(p):
    """Derivative of a polynomial in descending coefficients."""
    n = len(p) - 1
    if n <= 0:
        return [0]
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def sturm_chain(p):
    chain = [[Fraction(c) for c in polys.ptrim(p)]]
    d = pderiv(chain[0])
    if polys.pdeg(d) >= 0:
        chain.append(d)
        while polys.pdeg(chain[-1]) > 0:
            _, r = polys.pdivmod(chain[-2], chain[-1])
            if polys.pdeg(r) < 0:
                break
            chain.append(polys.pneg(r))
    return chain


def sturm_real_root_count(p):
    """Number of distinct real roots of p, exact (Sturm over the rationals);
    reference for forms.real_root_count."""
    p = polys.ptrim(p)
    if polys.pdeg(p) <= 0:
        return 0
    chain = sturm_chain(p)
    # signs at -inf / +inf from leading terms
    at_pos = [q[0] for q in chain]
    at_neg = [q[0] * (-1) ** polys.pdeg(q) for q in chain]
    return _sign_changes(at_neg) - _sign_changes(at_pos)


def sylvester_resultant(p, q):
    """Resultant via the Sylvester matrix, exact (Bareiss on integers)."""
    p = polys.ptrim(p)
    q = polys.ptrim(q)
    n, m = polys.pdeg(p), polys.pdeg(q)
    if n < 0 or m < 0:
        return 0
    if n == 0:
        return p[0] ** m
    if m == 0:
        return q[0] ** n
    den = common_denominator([p + q])
    pi = [int(c * den) for c in p]
    qi = [int(c * den) for c in q]
    size = n + m
    rows = []
    for i in range(m):
        rows.append([0] * i + pi + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + qi + [0] * (size - m - 1 - i))
    res = linalg.bareiss(rows)[0]
    if den == 1:
        return res
    return Fraction(res, den ** size)


def discriminant_sylvester(f):
    """Delta(f) from the (2n-1) x (2n-1) Sylvester resultant of f(X,1) and
    its derivative, (-1)^(n(n-1)/2) Res(p, p') / p_0; a root at infinity
    (f0 = 0) contributes f1^2 times the discriminant of the rest.  Reference
    for forms.discriminant (Bezout matrix, shear at f0 = 0)."""
    c = list(f.coeffs)
    n = f.degree
    if not any(c):
        return 0
    if n <= 1:
        return 1
    if c[0] == 0:
        out = Fraction(c[1]) ** 2 * discriminant_sylvester(
            pr.BinaryForm(n - 1, tuple(c[1:]))) if c[1] else Fraction(0)
    else:
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        out = sign * Fraction(sylvester_resultant(c, pderiv(c))) / c[0]
    return int(out) if out.denominator == 1 else out


def det_adj_reference(M):
    """(det M, adj M) by fraction-free Gauss-Jordan on the augmented
    [M | I]: at the end the right block is det(PM)·(PM)^-1.  Reference for
    linalg.bareiss with the block I."""
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


def fraction_solve(M, W=()):
    """(det M, adj(M)·W) by Gaussian elimination over Fractions, W given
    as rows; the block is None when M is singular.  Reference for
    linalg.bareiss."""
    n = len(M)
    a = [[Fraction(x) for x in row] + [Fraction(x) for x in w]
         for row, w in zip(M, W or [()] * n)]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                c = a[i][k]
                a[i] = [x - c * y for x, y in zip(a[i], a[k])]
    return int(det), [[int(det * x) for x in row[n:]] for row in a]


def planted_gram(rng, n, s, precision=192):
    """H = g^-T diag(s^2, 1, ..., 1) g^-1 for a random unimodular g."""
    g = rand_unimodular(rng, n, ops=6)
    hinv = [list(r) for r in pr.UnimodularMatrix(n, g.entries).inverse().entries]
    with mp.workprec(precision):
        D = mp.diag([mp.mpf(s) ** 2] + [mp.mpf(1)] * (n - 1))
        Hm = mp.matrix([[mp.mpf(x) for x in row] for row in hinv]).T * D * \
            mp.matrix([[mp.mpf(x) for x in row] for row in hinv])
        return gram_from_mp(Hm, mp.mpf(2) ** (-precision + 8))


def gram_from_mp(M, error_bound):
    """The GramMatrix whose entries are exactly those of M, an mp.matrix or
    rows of mpf and ints, at any working precision: their integer mantissas
    at the smallest exponent among them."""
    rows = M.tolist() if isinstance(M, mp.matrix) else M
    me = [[man_exp(x) if isinstance(x, mp.mpf) else (int(x), 0) for x in row]
          for row in rows]
    e = min((f for row in me for m, f in row if m), default=0)
    return pr.GramMatrix(tuple(tuple(m << f - e if m else 0 for m, f in row)
                               for row in me), e, mp.mpf(error_bound))


def clear_denominators(G):
    """(G s, s) for a rational matrix G and the lcm s of its denominators."""
    s = math.lcm(*(Fraction(x).denominator for row in G for x in row))
    return tuple(tuple(int(x * s) for x in row) for row in G), s


# ---------------------------------------------------------------------------
# oracles

def poly_xy_mul(a, b):
    out = {}
    for (i, j), ca in a.items():
        for (k, l), cb in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def poly_xy_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v != 0}


def det_xy_oracle(p):
    """det(Ax - By) by cofactor expansion over Z[x,y]; independent of the
    interpolation route."""
    n = p.n
    entries = [[{(1, 0): p.A[i][j], (0, 1): -p.B[i][j]} for j in range(n)]
               for i in range(n)]
    entries = [[{k: v for k, v in e.items() if v != 0} for e in row]
               for row in entries]

    def det(rows):
        m = len(rows)
        if m == 1:
            return rows[0][0]
        total = {}
        for j in range(m):
            if not rows[0][j]:
                continue
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = poly_xy_mul(rows[0][j], det(minor))
            if j % 2:
                term = {k: -v for k, v in term.items()}
            for k, v in term.items():
                total[k] = total.get(k, 0) + v
        return {k: v for k, v in total.items() if v != 0}

    return det(entries)


def invariant_form_oracle(p):
    d = det_xy_oracle(p)
    n = p.n
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    coeffs = [sign * d.get((n - i, i), 0) for i in range(n + 1)]
    return pr.BinaryForm(n, tuple(coeffs))


def disc_product_oracle(factors):
    """Delta = prod_{i<j} (a_i b_j - a_j b_i)^2 for f = prod (a_i x - b_i y)."""
    out = 1
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            ai, bi = factors[i]
            aj, bj = factors[j]
            out *= (ai * bj - aj * bi) ** 2
    return out


def reference_roots(coeffs, precision):
    """Roots of an integer polynomial from mp.polyroots at 4·precision bits,
    each with a radius: Henrici's n|p(z)/p'(z)| from mpmath's polyval at
    that precision, widened by a bound on its rounding error.  The caller
    checks that the radii are small and the disks pairwise disjoint, which
    makes each disk hold exactly one root."""
    wp = 4 * precision
    with mp.workprec(wp):
        c = [mp.mpf(x) for x in coeffs]
        n = len(c) - 1
        out = []
        for z in mp.polyroots(c, maxsteps=400, extraprec=wp):
            p, dp = mp.polyval(c, z, derivative=True)
            err = mp.mpf(2) ** (8 - wp) * n * mp.fsum(
                abs(x) for x in c) * max(1, abs(z)) ** n
            out.append((z, n * (abs(p) + err) / (abs(dp) - n * err)))
        return out


def assemble_gram_reference(db, diag, precision):
    """Reference covariant assembly: H = P^-H diag P^-1 through an explicit
    inverse of P = [columns of db], then symmetrized.  Returns (H real as an
    mp.matrix, err), or (None, None) when H is not numerically Hermitian.
    Call it at the working precision of the library's own assembly."""
    n = db.n
    P = mp.matrix(n)
    for j, col in enumerate(db.columns):
        for i, x in enumerate(col):
            P[i, j] = x
    S = P ** -1
    H = mp.matrix(n)
    for i in range(n):
        for j in range(n):
            acc = mp.mpc(0)
            for k in range(n):
                acc += mp.conj(S[k, i]) * diag[k] * S[k, j]
            H[i, j] = acc
    scale = max(abs(H[i, j]) for i in range(n) for j in range(n))
    imag_max = max(abs(mp.im(H[i, j])) for i in range(n) for j in range(n))
    asym = max(abs(H[i, j] - mp.conj(H[j, i]))
               for i in range(n) for j in range(n))
    tol = n * mp.mpf(2) ** (-precision // 2) * max(scale, mp.mpf(1))
    if imag_max > tol or asym > tol:
        return None, None
    R = mp.matrix(n)
    for i in range(n):
        for j in range(n):
            R[i, j] = (mp.re(H[i, j]) + mp.re(H[j, i])) / 2
    err = imag_max + asym + max(scale, mp.mpf(1)) * mp.mpf(2) ** (
        -precision // 2)
    return R, err


def covariant_reference(p, precision):
    """H_{A,B} from independent pieces at the library's working precision
    precision + 2n + 32: at each certified root the null vector of
    x0*A - y0*B by full-pivot elimination (nullvector_reference), diag_i =
    max(|v^T A v|, |v^T B v|) in mpmath, and H = P^-H diag P^-1 through the
    explicit inverse of assemble_gram_reference.  Returns (H, err) as there,
    with the entry of each root in complex_roots order."""
    n = p.n
    with mp.workprec(precision + 2 * n + 32):
        A, B = mp_matrix_of(p.A), mp_matrix_of(p.B)
        roots = pr.complex_roots(pr.invariant_form(p), precision).entries
        cols, diag = [], []
        for e in roots:
            x0, y0 = (1, 0) if e.at_infinity else (e.value, 1)
            v = nullvector_reference(x0 * A - y0 * B, n)
            cols.append(v)
            diag.append(max(abs(mp.fsum(v[i] * M[i, j] * v[j]
                                        for i in range(n) for j in range(n)))
                            for M in (A, B)))
        db = SimpleNamespace(n=n, columns=cols)
        return assemble_gram_reference(db, diag, precision)


def rationalize_gram_reference(H, bits):
    """(H_ij + H_ji) / 2 rounded by mp.nint onto the grid 2^-bits at
    bits + 64 bits of working precision, as (G, s) by clear_denominators:
    the floating-point rationalization that reduce.rationalize_gram
    reproduces in integers."""
    n = H.n
    den = 1 << bits
    out = [[Fraction(0)] * n for _ in range(n)]
    with mp.workprec(bits + 64):
        for i in range(n):
            for j in range(i, n):
                x = (H.entries[i][j] + H.entries[j][i]) / 2
                q = Fraction(int(mp.nint(x * den)), den)
                out[i][j] = out[j][i] = q
    return clear_denominators(out)


def nullvector_reference(M, n):
    """Unit null vector of a numerically rank-(n-1) complex mp.matrix, by
    Gaussian elimination with full pivoting; the free column after n-1
    steps carries the solution.  The reference for the adjugate columns of
    covariant.simultaneous_diagonalize."""
    a = [[mp.mpc(M[i, j]) for j in range(n)] for i in range(n)]
    col_perm = list(range(n))
    for step in range(n - 1):
        best, bi, bj = mp.mpf(-1), step, step
        for i in range(step, n):
            for j in range(step, n):
                m = abs(a[i][j])
                if m > best:
                    best, bi, bj = m, i, j
        if best == 0:
            break
        a[step], a[bi] = a[bi], a[step]
        if bj != step:
            for row in a:
                row[step], row[bj] = row[bj], row[step]
            col_perm[step], col_perm[bj] = col_perm[bj], col_perm[step]
        piv = a[step][step]
        for i in range(step + 1, n):
            f = a[i][step] / piv
            if f != 0:
                for j in range(step, n):
                    a[i][j] -= f * a[step][j]
    x = [mp.mpc(0)] * n
    x[n - 1] = mp.mpc(1)
    for i in range(n - 2, -1, -1):
        s = sum(a[i][j] * x[j] for j in range(i + 1, n))
        x[i] = -s / a[i][i]
    v = [mp.mpc(0)] * n
    for pos, orig in enumerate(col_perm):
        v[orig] = x[pos]
    norm = mp.sqrt(sum(abs(c) ** 2 for c in v))
    return [c / norm for c in v]


def gram_of_basis(U, H):
    """U H U^T for integer rows U and GramMatrix H, in mp."""
    Um = mp.matrix([list(r) for r in U])
    return Um * mp_matrix_of(H.entries) * Um.T


def is_reduced_oracle(U, G0, delta=0.99):
    """Vector-based LLL-reducedness check of the rows of U against the exact
    Fraction Gram G0 (independent of the library's Gram-only GSO)."""
    n = len(U)
    basis = [[Fraction(x) for x in row] for row in U]

    def inner(u, v):
        return sum(u[i] * Fraction(G0[i][j]) * v[j]
                   for i in range(n) for j in range(n))

    star = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        vec = list(basis[i])
        for j in range(i):
            mu[i][j] = inner(basis[i], star[j]) / inner(star[j], star[j])
            vec = [a - mu[i][j] * b for a, b in zip(vec, star[j])]
        star.append(vec)
    for i in range(n):
        for j in range(i):
            if abs(mu[i][j]) > Fraction(1, 2):
                return False
    d = Fraction(delta)
    for k in range(1, n):
        lhs = inner(star[k], star[k])
        rhs = (d - mu[k][k - 1] ** 2) * inner(star[k - 1], star[k - 1])
        if lhs < rhs:
            return False
    return True


def _gso_fraction(G):
    """Gram-Schmidt data (mu, B*) of a Fraction Gram, recomputed from G."""
    n = len(G)
    mu = [[Fraction(0)] * n for _ in range(n)]
    Bs = [Fraction(0)] * n
    c = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            c[i][j] = Fraction(G[i][j]) - sum(
                mu[j][k] * c[i][k] for k in range(j))
            if j < i:
                mu[i][j] = c[i][j] / Bs[j]
        Bs[i] = c[i][i]
    return mu, Bs


def lll_gram_reference(G, delta=0.99):
    """Textbook Fraction LLL on a Gram matrix, the reference for lll_gram.

    Same order of steps as the library (full size reduction of row k with
    round-half-even, then the Lovasz test, k = max(k-1, 1) after a swap),
    but the Gram is carried along and the whole Gram-Schmidt data is
    recomputed after every swap.
    """
    deltaf = Fraction(delta)
    n = len(G)
    G = [[Fraction(x) for x in row] for row in G]
    U = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(k, j, q):
        # b_k -= q * b_j
        U[k] = [a - q * b for a, b in zip(U[k], U[j])]
        new_row = [G[k][t] - q * G[j][t] for t in range(n)]
        new_row[k] = G[k][k] - 2 * q * G[k][j] + q * q * G[j][j]
        G[k] = new_row
        for t in range(n):
            G[t][k] = new_row[t]

    mu, Bs = _gso_fraction(G)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                row_op(k, j, q)
                for t in range(j):
                    mu[k][t] -= q * mu[j][t]
                mu[k][j] -= q
        if Bs[k] >= (deltaf - mu[k][k - 1] ** 2) * Bs[k - 1]:
            k += 1
        else:
            U[k], U[k - 1] = U[k - 1], U[k]
            G[k], G[k - 1] = G[k - 1], G[k]
            for row in G:
                row[k], row[k - 1] = row[k - 1], row[k]
            mu, Bs = _gso_fraction(G)
            k = max(k - 1, 1)
    return U


def det_ratio(norm, det, n):
    """|v|_H / det(H)^(1/2n) for norm = v^T H v and det = det(H), in
    mpmath at the working precision: the reference for reduce.Lattice.ratio,
    invariant under scaling H and under a change of basis."""
    return mp.sqrt(norm) / det ** (mp.mpf(1) / (2 * n))


def iwasawa_reference(H, precision):
    """Iwasawa coordinates of H / det(H)^(1/n) in floating point, the
    reference for reduce.iwasawa_coordinates: H1 = (nu t)^-T (nu t)^-1 means
    H1^-1 = nu t^2 nu^T, a UDU^T factorization, computed here as the LDL^T
    of the index-reversed inverse.  Returns (t, nu) as tuples of mpf, nu row
    i holding the entries right of the diagonal."""
    n = H.n
    with mp.workprec(precision + 32):
        Hm = mp_matrix_of(H.entries)
        C = (Hm / mp.det(Hm) ** (mp.mpf(1) / n)) ** -1
        Cf = mp.matrix(n)
        for i in range(n):
            for j in range(n):
                Cf[i, j] = C[n - 1 - i, n - 1 - j]
        L = mp.eye(n)
        D = [mp.mpf(0)] * n
        for j in range(n):
            D[j] = Cf[j, j] - mp.fsum(L[j, k] ** 2 * D[k] for k in range(j))
            for i in range(j + 1, n):
                L[i, j] = (Cf[i, j] - mp.fsum(
                    L[i, k] * L[j, k] * D[k] for k in range(j))) / D[j]
        t = tuple(mp.sqrt(D[n - 1 - i]) for i in range(n))
        nu = tuple(tuple(L[n - 1 - i, n - 1 - j] for j in range(i + 1, n))
                   for i in range(n))
    return t, nu


def mp_matrix_of(rows):
    """Rows of ints, Fractions or mpf as an mp.matrix; mpf entries are kept
    as they are."""
    return mp.matrix([[mp.mpf(x.numerator) / mp.mpf(x.denominator)
                       if isinstance(x, Fraction) else x for x in row]
                      for row in rows])


def enumerate_minima_reference(d, lam):
    """Fincke-Pohst on Fractions, the reference for reduce._enumerate_minima:
    (N, minimizers) of the positive definite integer form with integral
    Gram-Schmidt data (d, lam).  The LDL^T is L_ij = lam_ij / d_{j+1} and
    D_i = d_{i+1} / d_i, so each partial sum is an exact norm; the radius
    starts at the smallest diagonal entry and shrinks as better vectors
    appear."""
    n = len(lam)
    L = [[Fraction(lam[i][j], d[j + 1]) for j in range(i)] for i in range(n)]
    D = [Fraction(d[i + 1], d[i]) for i in range(n)]
    best = min(D[i] + sum(D[j] * L[i][j] ** 2 for j in range(i))
               for i in range(n))
    minima = []
    x = [0] * n

    def recurse(i, partial):
        nonlocal best, minima
        if i < 0:
            if any(x):
                if partial < best:
                    best = partial
                    minima = [tuple(x)]
                elif partial == best:
                    minima.append(tuple(x))
            return
        c = sum(L[j][i] * x[j] for j in range(i + 1, n))
        budget = best - partial
        if budget < 0:
            return
        base = round(-c)
        for xi, step in ((base, 1), (base - 1, -1)):
            term = D[i] * (xi + c) ** 2
            while term <= budget:
                x[i] = xi
                recurse(i - 1, partial + term)
                xi += step
                term = D[i] * (xi + c) ** 2
        x[i] = 0

    recurse(n - 1, Fraction(0))
    return int(best), minima


def form_mul(f, g):
    """Product of two binary forms, exact."""
    n, m = f.degree, g.degree
    out = [0] * (n + m + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return pr.BinaryForm(n + m, tuple(out))


def row_hnf_reference(rows):
    """Row Hermite normal form by sort-based gcd elimination; zero rows
    dropped.  The reference for linalg.hnf_insert."""
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


def kernel_mod_reference(M, m, factors):
    """{x in Z^k : M x == 0 (mod m)} in row HNF by p-adic lifting: the
    solutions mod p^j come from an F_p nullspace of the solutions mod
    p^(j-1), one power of p at a time, and the prime powers are combined
    by CRT.  The reference for linalg.kernel_mod."""
    k = len(M[0])
    if m == 1:
        return linalg.identity_matrix(k)
    K = None
    m_done = 1
    for p, e in sorted(factors.items()):
        q = p ** e
        B = linalg.identity_matrix(k)
        for j in range(1, e + 1):
            # B spans the solutions mod p^(j-1), so p*B contains p^j*Z^k
            step = p ** (j - 1)
            C = [[x // step % p for x in row]
                 for row in linalg.mat_mul(M, linalg.transpose(B))]
            B = linalg.hnf_insert([[p * x for x in row] for row in B],
                                  linalg.mat_mul(linalg.fp_nullspace(C, p), B))
        if K is None:
            K = B
        else:
            K = linalg.hnf_insert([[m_done * q * x for x in row]
                                   for row in linalg.identity_matrix(k)],
                                  [[q * x for x in row] for row in K]
                                  + [[m_done * x for x in row] for row in B])
        m_done *= q
    return K


def pm_is_irreducible_reference(f, p):
    """Rabin's test: f of degree n is irreducible mod p iff
    X^(p^n) == X mod f and gcd(X^(p^(n/q)) - X, f) = 1 for each prime
    q | n.  The reference for polys.pm_is_irreducible."""
    f = polys.ptrim([c % p for c in f])
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    finv = pow(f[0], -1, p)
    f = [c * finv % p for c in f]
    x = [1, 0]
    if polys.pm_sub(polys.pm_powmod(x, p ** n, f, p), x, p) != [0]:
        return False
    for q in polys.factor_trial(n):
        d = polys.pm_sub(polys.pm_powmod(x, p ** (n // q), f, p), x, p)
        if polys.pm_gcd(d, f, p) != [1]:
            return False
    return True


def _grow_candidates_reference(H, GA, GB, p):
    """Generators (pH and u) of every index-p overlattice keeping both
    forms integral, with the shift of u by p*w tried for odd p."""
    def quad(G, x):
        return sum(a * b for a, b in zip(x, linalg.mat_vec(G, x)))

    out = []
    for x in orbits._fp_lines(linalg.fp_nullspace(GA + GB, p), p):
        qa, qb = quad(GA, x), quad(GB, x)
        xx = None
        if qa % (p * p) == 0 and qb % (p * p) == 0:
            xx = list(x)
        elif p != 2:
            ga_x = linalg.mat_vec(GA, x)
            gb_x = linalg.mat_vec(GB, x)
            aug = [[2 * v % p for v in ga_x] + [qa // p % p],
                   [2 * v % p for v in gb_x] + [qb // p % p]]
            w = next((v[:-1] for v in linalg.fp_nullspace(aug, p) if v[-1]),
                     None)
            if w is not None:
                xx = [a + p * b for a, b in zip(x, w)]
                if quad(GA, xx) % (p * p) or quad(GB, xx) % (p * p):
                    xx = None
        if xx is not None:
            u = linalg.mat_vec(linalg.transpose(H), xx)
            out.append([[p * c for c in row] for row in H] + [u])
    return out


def integralize_reference(p, max_states=8000):
    """orbits.integralize as an eager search, the reference for its order:
    every state is scored (Grams and all) when it is pushed, keys come from
    row_hnf_reference, and the overlattice step also tries the shift.  Like
    the search, it expands a state only at the smallest prime of its
    covolume.
    Returns the IntegralizeResult, or raises NotFound at the same budget."""
    n = p.n
    a = common_denominator(p.A + p.B)
    A = [[int(x * a) for x in row] for row in p.A]
    B = [[int(x * a) for x in row] for row in p.B]

    def grams(H):
        Ht = linalg.transpose(H)
        return [linalg.mat_mul(linalg.mat_mul(H, M), Ht) for M in (A, B)]

    seen, known, heap = set(), set(), []
    counter = 0

    def push(d, M):
        nonlocal counter
        H = row_hnf_reference(M)
        g = gcd(d, *(x for row in H for x in row))
        key = d // g, tuple(tuple(x // g for x in row) for row in H)
        if key in seen:
            return
        seen.add(key)
        d, H = key
        s = a * d * d
        GA, GB = ([[x // s for x in row] for row in G] for G in grams(H))
        covol = Fraction(math.prod(H[i][i] for i in range(n)), d ** n)
        size = max(1, max(abs(x) for G in (GA, GB) for row in G for x in row))
        score = (abs(math.log(covol.numerator) - math.log(covol.denominator)),
                 math.log(size))
        heapq.heappush(heap, (score, counter, key, covol, GA, GB))
        counter += 1

    ident = linalg.identity_matrix(n)
    for q in [1, *orbits._primes(a, known)]:
        push(q, orbits._shrink_to_integral(grams(ident), a * q * q, known))
    explored = 0
    while heap and explored < max_states:
        _, _, (d, H), covol, GA, GB = heapq.heappop(heap)
        explored += 1
        if covol == 1:
            return orbits._finish(p, d, H, GA, GB)
        # only the smallest prime of the covolume, as in the search
        q = min(orbits._primes(covol.numerator if covol > 1
                               else covol.denominator, known))
        if covol > 1:
            for M in _grow_candidates_reference(H, GA, GB, q):
                push(d * q, M)
        else:
            for lam in orbits._fp_lines(linalg.identity_matrix(n), q):
                push(d, linalg.mat_mul(linalg.kernel_mod([lam], q, {q: 1}), H))
    raise pr.NotFound("no integral representative within the search budget")
