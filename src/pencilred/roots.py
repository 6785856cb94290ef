"""Certified complex roots of squarefree polynomials, after MPSolve (Bini
and Robol, JCAM 2014), on ints and floats.  Seeds: Aberth on builtin complex
numbers from the circles of the Newton polygon, the coefficients shifted to
at most 60 bits so that no float overflows.  Polish: Gauss-Seidel Aberth in
fixed point, z = (x + iy)/2^s with int x, y, on a ladder that fits Aberth's
cubic order: from the seeds' s = 52, each width is three times the last
(156, 468, ...), capped at wp = precision + 32; a width stops once every
correction is below 2^(-s/3), which leaves the points good to about s bits.
Certificate: near-real roots are snapped to the real axis and conjugate
pairs made exact; p and p' are evaluated exactly at each dyadic point
(Gaussian-integer Horner), so Henrici's radius n|p(z)/p'(z)|, rounded up to
a dyadic, has no rounding error: each disk holds a root, and n pairwise
disjoint disks hold one each.  Smallness and disjointness are decided in
integers; wp doubles when either fails.
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import from_man_exp

from .errors import PrecisionExhausted
from .linalg import clear_denominators

_MAX_ESCALATIONS = 5
_SWEEPS = 64            # most Aberth sweeps per width; a cluster needs many


def to_mpf(x):
    """An int or Fraction as an mpf at the working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def dyadic(m, e):
    """The mpf m·2^e for ints m and e, exactly."""
    return mp.make_mpf(from_man_exp(m, e))


def man_exp(x):
    """(m, e) with x = m·2^e, m a signed int, for a finite mpf x."""
    sign, m, e, _ = x._mpf_
    return -m if sign else m, e


def certified_roots(coeffs, precision):
    """Roots of a squarefree polynomial with per-root certified radii.

    coeffs: descending int/Fraction coefficients, nonzero leading coefficient.
    Returns exact dyadic (root: mpc, radius: mpf), radius <= 2^-precision
    (1 + |root|); a real root has imaginary part 0, a non-real one is followed
    by its exact conjugate.  PrecisionExhausted if the disks do not certify.
    """
    return list(_certified_roots_cached(tuple(coeffs), precision))


@lru_cache(maxsize=64)
def _certified_roots_cached(coeffs, precision):
    if len(coeffs) <= 1:
        return ()
    c = clear_denominators([coeffs])[1][0]
    zs, s, wp = _seeds(c), 52, precision + 32
    for _ in range(_MAX_ESCALATIONS):
        while True:                 # at least one width: seeds are not polished
            t = min(3 * s, max(wp, s))
            zs, s = _polish(c, [(x << t - s, y << t - s) for x, y in zs], t), t
            if s >= wp:
                break
        out = _certify(c, zs, s, precision)
        if out is not None:
            return out
        wp *= 2
    raise PrecisionExhausted("root certification failed at %d bits" % s)


def _seeds(c):
    """Float Aberth approximations of the roots of c at the fixed point
    2^52, started on the circles of the upper convex hull of the points
    (k, log|coefficient of z^k|); a non-finite or huge one keeps its start."""
    n = len(c) - 1
    shift = max(0, max(abs(x).bit_length() for x in c) - 60)
    a = [x / (1 << shift) for x in c]
    pts = [(n - k, math.log(abs(x))) for k, x in enumerate(c) if x][::-1]
    hull = pts[:1]
    while hull[-1][0] < n:          # gift wrapping: the steepest next point
        e0, h0 = hull[-1]
        hull.append(max((q for q in pts if q[0] > e0), key=lambda q: (
            (q[1] - h0) / (q[0] - e0), q[0])))
    starts = [0j] * hull[0][0]      # a vanishing constant term: root 0
    for (e1, h1), (e2, h2) in zip(hull, hull[1:]):
        r = math.exp(max(-300.0, min(300.0, (h1 - h2) / (e2 - e1))))
        starts += [r * cmath.exp(1j * (2 * math.pi * j / (e2 - e1) + 0.7
                                       + len(starts))) for j in range(e2 - e1)]
    zs = list(starts)
    for _ in range(_SWEEPS):
        moved = 0.0
        for i, z in enumerate(zs):
            p = d = 0j
            for x in a:
                p, d = p * z + x, d * z + p
            if d:
                newton = p / d
                q = 1 - newton * sum(1 / (z - w) for w in zs if w != z)
                zs[i] = z - (newton / q if q else newton)
                moved = max(moved, abs(zs[i] - z) / (1 + abs(z)))
        if not moved > 1e-14:       # converged, or not finite
            break
    out = []
    for i, (z, z0) in enumerate(zip(zs, starts)):
        z = 2 ** 52 * (z if cmath.isfinite(z) and abs(z) < 1e200 else z0)
        # distinct offsets of relative size 2^-40 keep the points apart and
        # break symmetries Aberth keeps (points on a symmetry line of p)
        u = (abs(z.real) + abs(z.imag) + 2 ** 52) / 2 ** 40
        out.append((int(z.real + (i + 1) * u), int(z.imag + (2 * i + 1) * u)))
    return out


def horner(c, x, y, s, exact=False):
    """(p, p') at z = (x + iy)/2^s as Gaussian integers (re, im, re, im),
    exact and scaled by 2^(sn), 2^(s(n-1)), or truncated at the point 2^s."""
    t = 0 if exact else s
    pr, pi, dr, di = c[0] << t, 0, 0, 0
    for k, ck in enumerate(c[1:], 1):
        dr, di = ((dr * x - di * y) >> t) + pr, ((dr * y + di * x) >> t) + pi
        pr, pi = (((pr * x - pi * y) >> t) + (ck << (t or s * k)),
                  (pr * y + pi * x) >> t)
    return pr, pi, dr, di


def _gdiv(ar, ai, br, bi, s):
    """(a / b)·2^s for Gaussian integers a and b != 0, floored."""
    m = br * br + bi * bi
    return ((ar * br + ai * bi) << s) // m, ((ai * br - ar * bi) << s) // m


def _polish(c, zs, s):
    """Gauss-Seidel Aberth sweeps at the fixed point 2^s, until every
    correction is at most 2^(-floor(s/3))(1 + |z|) or after _SWEEPS sweeps;
    by cubic convergence the points are then good to the full width."""
    zs, one = list(zs), 1 << s
    for _ in range(_SWEEPS):
        done = True
        for i, (x, y) in enumerate(zs):
            pr, pi, dr, di = horner(c, x, y, s)
            if not (dr or di):
                continue
            nr, ni = _gdiv(pr, pi, dr, di, s)            # p / p'
            sr = si = 0                                  # sum 1/(z - w)
            for u, v in zs:
                if u != x or v != y:
                    qr, qi = _gdiv(one, 0, x - u, y - v, s)
                    sr, si = sr + qr, si + qi
            qr = one - ((nr * sr - ni * si) >> s)
            qi = -((nr * si + ni * sr) >> s)
            if qr or qi:
                nr, ni = _gdiv(nr, ni, qr, qi, s)
            zs[i] = (x - nr, y - ni)
            done &= (abs(nr) + abs(ni)) << (s // 3) <= one + abs(x) + abs(y)
        if done:
            break
    return zs


def _certify(c, zs, s, precision):
    """The certified (mpc, mpf) pairs of the points zs at the fixed point
    2^s, or None when the snapped points do not certify."""
    n, one = len(c) - 1, 1 << s
    real, upper = [], []
    for x, y in zs:
        # at most s bits of mantissa, as the pair test of the covariant needs
        k = max(0, max(abs(x), abs(y)).bit_length() - s)
        x, y = x >> k << k, y >> k << k
        if abs(y) << (s // 2) <= one + abs(x):
            real.append((x, 0))
        elif y > 0:
            upper.append((x, y))
    if len(real) + 2 * len(upper) != n:
        return None
    pts = []
    for x, y in sorted(upper, key=lambda z: -z[1]) + real:
        pr, pi, dr, di = horner(c, x, y, s, exact=True)
        if not (dr or di):
            return None
        q = -(-n * n * (pr * pr + pi * pi) // (dr * dr + di * di))
        r = math.isqrt(q)
        r += r * r < q              # r >= n|p(z)/p'(z)|·2^s
        e = (r << precision) - one
        if e > 0 and e * e > x * x + y * y:
            return None             # r/2^s > 2^-precision (1 + |z|)
        pts += [(x, y, r), (x, -y, r)] if y else [(x, 0, r)]
    if any((x - u) ** 2 + (y - v) ** 2 <= (r + t) ** 2
           for i, (x, y, r) in enumerate(pts) for u, v, t in pts[i + 1:]):
        return None
    return tuple((mp.make_mpc((from_man_exp(x, -s), from_man_exp(y, -s))),
                  dyadic(r, -s)) for x, y, r in pts)
