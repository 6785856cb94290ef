"""Exact univariate polynomial helpers.

Polynomials are lists of coefficients in descending powers; entries are ints
or Fractions.  Arithmetic mod a prime serves the modular irreducibility
tests: Berlekamp's space {g : g^p == g mod f} gives both the count of
irreducible factors and, by Zassenhaus's split, the factors themselves.
"""

import random
from fractions import Fraction
from math import gcd, isqrt

from . import linalg


def ptrim(p):
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return list(p[i:])


def pdeg(p):
    p = ptrim(p)
    if len(p) == 1 and p[0] == 0:
        return -1
    return len(p) - 1


def padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    off = len(p) - len(q)
    for i, c in enumerate(q):
        out[off + i] += c
    return ptrim(out)


def pneg(p):
    return [-c for c in p]


def pdivmod(p, q):
    """Exact division with Fraction arithmetic: p = quo*q + rem."""
    p = [Fraction(c) for c in ptrim(p)]
    q = [Fraction(c) for c in ptrim(q)]
    if pdeg(q) < 0:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    while pdeg(p) >= pdeg(q):
        shift = pdeg(p) - pdeg(q)
        coef = p[0] / q[0]
        quo[len(quo) - 1 - shift] = coef
        sub = [coef * c for c in q] + [Fraction(0)] * shift
        p = padd(p, pneg(sub))
        if pdeg(p) < 0:
            break
        p = ptrim(p)
    return ptrim(quo), ptrim(p)


def content(p):
    g = 0
    for c in p:
        g = gcd(g, abs(int(c)))
    return g


def primitive_part(p):
    """Integer primitive part (positive leading coefficient) of a rational poly."""
    ints = linalg.clear_denominators([ptrim(p)])[1][0]
    g = content(ints)
    if g == 0:
        return [0]
    ints = [c // g for c in ints]
    if ints[0] < 0:
        ints = [-c for c in ints]
    return ints


# ----------------------------------------------------------------------------
# arithmetic mod a prime


def pm_mul(a, b, p):
    if a == [0] or b == [0]:
        return [0]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return ptrim(out)


def pm_divmod(a, b, p):
    """(quotient, remainder) of a by b mod p, by long division in place:
    each step fixes one quotient coefficient and clears one leading term."""
    a = ptrim([c % p for c in a])
    b = ptrim([c % p for c in b])
    if b == [0]:
        raise ZeroDivisionError
    steps = len(a) - len(b) + 1
    if steps <= 0:
        return [0], a
    binv = pow(b[0], -1, p)
    tail = b[1:]
    quo = []
    for i in range(steps):
        c = a[i] * binv % p
        quo.append(c)
        if c:
            for j, y in enumerate(tail, i + 1):
                a[j] = (a[j] - c * y) % p
    return ptrim(quo), ptrim(a[steps:]) or [0]


def pm_gcd(a, b, p):
    a = ptrim([c % p for c in a])
    b = ptrim([c % p for c in b])
    while b != [0]:
        _, r = pm_divmod(a, b, p)
        a, b = b, r
    if a != [0]:
        ainv = pow(a[0], -1, p)
        a = [c * ainv % p for c in a]
    return a


def pm_powmod(base, e, mod, p):
    result = [1]
    base = pm_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = pm_divmod(pm_mul(result, base, p), mod, p)[1]
        base = pm_divmod(pm_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def pm_fixed_space(f, p):
    """F_p basis of {g : g^p == g mod f}, f monic of degree n (Berlekamp,
    1967), each g as n descending coefficients.  Row i of Q holds X^(ip)
    mod f and g^p = sum g_i X^(ip), so the space is the left kernel of
    Q - I.  For a squarefree f its dimension is the number of factors."""
    n = len(f) - 1
    xp = pm_powmod([1, 0], p, f, p)
    Q, row = [], [1]
    for i in range(n):
        if i:
            row = pm_divmod(pm_mul(row, xp, p), f, p)[1]
        coeffs = row[::-1] + [0] * (n - len(row))
        coeffs[i] -= 1      # the row of Q - I, ascending powers
        Q.append(coeffs)
    return [v[::-1] for v in linalg.fp_nullspace(linalg.transpose(Q), p)]


def pm_is_irreducible(f, p):
    """Whether f is irreducible mod p, for every f: one of degree >= 2 with
    gcd(f, f') != 1 mod p has a repeated factor and is not; a squarefree f
    is iff its `pm_fixed_space` has dimension 1."""
    f = ptrim([c % p for c in f])
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    finv = pow(f[0], -1, p)
    f = [c * finv % p for c in f]
    if pm_gcd(f, [c * (n - i) for i, c in enumerate(f[:-1])], p) != [1]:
        return False
    return len(pm_fixed_space(f, p)) == 1


def pm_sub(a, b, p):
    la, lb = len(a), len(b)
    m = max(la, lb)
    a = [0] * (m - la) + list(a)
    b = [0] * (m - lb) + list(b)
    return ptrim([(x - y) % p for x, y in zip(a, b)])


def pm_factor(f, p, rng=None):
    """Factor a squarefree f mod p (p odd) into monic irreducibles, sorted
    by (degree, coefficients).  Zassenhaus's split (Cohen, GTM 138, 3.4):
    a random g in Berlekamp's space `pm_fixed_space` is a constant c_i mod
    each factor, so each h splits three ways: gcd(h, g) keeps the factors
    with c_i = 0, gcd(h, g^((p-1)/2) - 1) those with c_i a nonzero square,
    and the cofactor the rest.  Rounds repeat until there are as many
    factors as the space has dimensions; rng changes only the work, not
    the result.
    """
    if rng is None:
        rng = random.Random(0xC0FFEE)
    f = ptrim([c % p for c in f])
    finv = pow(f[0], -1, p)
    f = [c * finv % p for c in f]
    if len(f) == 1:
        return []
    space = pm_fixed_space(f, p)
    factors = [f]
    while len(factors) < len(space):
        cs = [rng.randrange(p) for _ in space]
        g = [sum(c * b[j] for c, b in zip(cs, space)) % p
             for j in range(len(f) - 1)]
        G = pm_sub(pm_powmod(g, (p - 1) // 2, f, p), [1], p)
        split = []
        for h in factors:
            zero, square = pm_gcd(h, g, p), pm_gcd(h, G, p)
            rest = pm_divmod(h, pm_mul(zero, square, p), p)[0]
            split += [d for d in (zero, square, rest) if len(d) > 1]
        factors = split
    factors.sort(key=lambda g: (len(g), g))
    return factors


# ----------------------------------------------------------------------------
# primes

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n):
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    n = max(n + 1, 2)
    if n % 2 == 0 and n > 2:
        n += 1
    while not is_probable_prime(n):
        n += 2 if n > 2 else 1
    return n


_TRIAL_BOUND = 10 ** 6


def factor_trial(m):
    """{prime: exponent} of m >= 1 by trial division up to 10^6.

    The trial divisors are 2, 3 and the 6k +- 1 wheel.  A cofactor left
    above 10^12 must pass the probable-prime test, else ValueError: it would
    be a composite with no factor below 10^6.
    """
    out = {}
    d, step = 2, 1
    while d * d <= m and d <= _TRIAL_BOUND:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += step
        step = 6 - step if d > 5 else 2
    if m > 1:
        if m > _TRIAL_BOUND ** 2 and not is_probable_prime(m):
            raise ValueError("composite factor with no prime below 10^6")
        out[m] = out.get(m, 0) + 1
    return out


def isqrt_ceil(n):
    r = isqrt(n)
    return r if r * r == n else r + 1
