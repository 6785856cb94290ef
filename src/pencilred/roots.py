"""Certified complex roots of squarefree polynomials.

Strategy: cheap simultaneous iteration at low precision for starting points,
then Aberth-Ehrlich polishing at the working precision, then a Newton step
and a residual certificate.  The certificate is Henrici's: the disk around z
of radius deg * |p(z)/p'(z)| contains a root, and if the disks for all
approximations are pairwise disjoint then each contains exactly one, so every
approximation is within its radius of a true root.
"""

from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .errors import PrecisionExhausted

_MAX_ESCALATIONS = 5


def to_mpf(x):
    """An int or Fraction as an mpf at the working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def _poly_and_deriv(coeffs):
    p = [to_mpf(c) for c in coeffs]
    n = len(p) - 1
    dp = [c * (n - i) for i, c in enumerate(p[:-1])]
    return p, dp


def _horner(p, z):
    acc = mp.mpc(0)
    for c in p:
        acc = acc * z + c
    return acc


def _initial_guesses(coeffs):
    """Durand-Kerner at ~60 bits gives adequate starting points."""
    with mp.workprec(60):
        try:
            zs = mp.polyroots([to_mpf(c) for c in coeffs], maxsteps=200,
                              extraprec=80)
            return [mp.mpc(z) for z in zs]
        except (mp.libmp.libhyper.NoConvergence, ZeroDivisionError):
            pass
    n = len(coeffs) - 1
    # fallback: points on a circle of radius from the coefficient bound
    with mp.workprec(60):
        lead = abs(to_mpf(coeffs[0]))
        r = 1 + max(abs(to_mpf(c)) for c in coeffs[1:]) / lead if n else 1
        return [r * mp.exp(2j * mp.pi * (k + mp.mpf(1) / 3) / n)
                for k in range(n)]


def _aberth_polish(p, dp, zs, wp):
    n = len(zs)
    tol = mp.mpf(2) ** (-wp + 8)
    for _ in range(60):
        moved = mp.mpf(0)
        new = list(zs)
        for i in range(n):
            pz = _horner(p, zs[i])
            dpz = _horner(dp, zs[i])
            if dpz == 0:
                continue
            newton = pz / dpz
            s = mp.mpc(0)
            for j in range(n):
                if j != i:
                    d = zs[i] - zs[j]
                    if d != 0:
                        s += 1 / d
            denom = 1 - newton * s
            delta = newton / denom if denom != 0 else newton
            new[i] = zs[i] - delta
            scale = 1 + abs(zs[i])
            moved = max(moved, abs(delta) / scale)
        zs = new
        if moved < tol:
            break
    return zs


def certified_roots(coeffs, precision):
    """Roots of a squarefree polynomial with per-root certified radii.

    coeffs: descending int/Fraction coefficients, nonzero leading coefficient.
    Returns a list of (root: mpc, radius: mpf) at `precision` bits.  Conjugate
    closure is enforced exactly for real input.  Raises PrecisionExhausted if
    the Henrici disks cannot be certified pairwise disjoint.
    """
    return list(_certified_roots_cached(tuple(coeffs), precision))


@lru_cache(maxsize=512)
def _certified_roots_cached(coeffs, precision):
    coeffs = list(coeffs)
    n = len(coeffs) - 1
    if n <= 0:
        return ()
    if n == 1:
        with mp.workprec(precision + 16):
            a, b = to_mpf(coeffs[0]), to_mpf(coeffs[1])
            z = mp.mpc(-b / a)
            return ((z, mp.mpf(2) ** (-precision) * (1 + abs(z))),)
    zs = _initial_guesses(coeffs)
    wp = precision + 32
    for _ in range(_MAX_ESCALATIONS):
        with mp.workprec(wp):
            p, dp = _poly_and_deriv(coeffs)
            zs = _aberth_polish(p, dp, [mp.mpc(z) for z in zs], wp)
            # one Newton step, then exact conjugate closure, then radii
            polished = []
            for z in zs:
                dpz = _horner(dp, z)
                if dpz != 0:
                    z = z - _horner(p, z) / dpz
                polished.append(z)
            zs = _enforce_conjugates(coeffs, polished, wp)
            roots, radii, ok = [], [], True
            for z in zs:
                pz = _horner(p, z)
                dpz = _horner(dp, z)
                if dpz == 0:
                    ok = False
                    roots.append(z)
                    radii.append(mp.mpf("inf"))
                    continue
                roots.append(z)
                radii.append(n * abs(pz / dpz) + mp.mpf(2) ** (-wp) * (1 + abs(z)))
            if ok:
                target = mp.mpf(2) ** (-precision)
                small = all(r <= target * (1 + abs(z))
                            for z, r in zip(roots, radii))
                disjoint = all(abs(roots[i] - roots[j]) > radii[i] + radii[j]
                               for i in range(n) for j in range(i + 1, n))
                if small and disjoint:
                    return tuple(zip(roots, radii))
        wp *= 2
    raise PrecisionExhausted(
        "root certification failed at %d bits" % wp)


def _enforce_conjugates(coeffs, zs, wp):
    """Snap conjugate pairs (and near-real roots) exactly, for real input."""
    if any(isinstance(c, complex) or (hasattr(c, "imag") and c.imag != 0)
           for c in coeffs):
        return zs
    snap = mp.mpf(2) ** (-wp // 2)
    out = []
    used = [False] * len(zs)
    order = sorted(range(len(zs)), key=lambda i: (-abs(mp.im(zs[i]))))
    for i in order:
        if used[i]:
            continue
        z = zs[i]
        scale = 1 + abs(z)
        if abs(mp.im(z)) <= snap * scale:
            used[i] = True
            out.append(mp.mpc(mp.re(z), 0))
            continue
        # find the best conjugate partner
        best, bestd = None, None
        for j in range(len(zs)):
            if j == i or used[j]:
                continue
            d = abs(zs[j] - mp.conj(z))
            if bestd is None or d < bestd:
                best, bestd = j, d
        if best is not None and bestd is not None and bestd <= snap * scale:
            used[i] = used[best] = True
            out.append(z)
            out.append(mp.conj(z))
        else:
            used[i] = True
            out.append(z)
    return out
