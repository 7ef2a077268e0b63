"""Shared exhaustive corpora for the test suite."""

import itertools
import math
from fractions import Fraction

import numpy as np

from threshold_spectra import from_generating_sequence


def connected_bitstrings(n):
    """All canonical generating sequences of connected graphs on n vertices."""
    if n == 1:
        return [(1,)]
    return [(1,) + mid + (1,) for mid in itertools.product((0, 1), repeat=n - 2)]


def connected_graphs(n):
    return [from_generating_sequence(bits) for bits in connected_bitstrings(n)]


def all_graphs(n):
    """Every canonical threshold graph on n vertices, connected or not."""
    if n == 1:
        return [from_generating_sequence((1,))]
    return [
        from_generating_sequence((1,) + tail)
        for tail in itertools.product((0, 1), repeat=n - 1)
    ]


def graph(bits):
    """Build a graph from a 0/1 string, e.g. graph("10101")."""
    return from_generating_sequence(int(ch) for ch in bits)


def horner(coefficients, x):
    """p(x) in floats, coefficients in descending powers."""
    value = 0.0
    for coefficient in coefficients:
        value = value * x + coefficient
    return value


def magnitude_scale(coefficients, x):
    """Sum of absolute term magnitudes of p at x, at least 1; a residual scale."""
    scale = 0.0
    power = 1.0
    for coefficient in reversed(coefficients):
        scale += abs(coefficient) * power
        power *= abs(x) if abs(x) > 1.0 else 1.0
    return max(scale, 1.0)


def bisection_root(coefficients, hint=0.0, cap=None):
    """Greatest real root at or above ``hint`` by the float bisection path.

    The package's root finder before its roots were certified, kept as an
    oracle: the upper end is ``cap`` when p > 0 there, else found by
    doubling; the lower end is ``hint`` when (without a cap) p(hint) < 0
    and p(t + hint) has one coefficient sign change, else the rightmost
    negative sample of a grid scan; the bracket is bisected to 1e-12 and
    its midpoint returned.
    """

    def p(x):
        value = 0.0
        for a in coefficients:
            value = value * x + a
        return value

    if cap is not None and p(cap) > 0.0:
        high = cap
    else:
        start = hint if cap is None else cap
        step = max(1.0, abs(start))
        for _ in range(200):
            high = start + step
            if p(high) > 0.0:
                break
            step *= 2.0
        else:
            raise AssertionError(f"no positive value above {start} for {coefficients}")
    shifted = [float(a) for a in coefficients]
    degree = len(shifted) - 1
    for i in range(degree):
        for j in range(1, degree + 1 - i):
            shifted[j] += hint * shifted[j - 1]
    signs = [a > 0.0 for a in shifted if a != 0.0]
    changes = sum(left != right for left, right in zip(signs, signs[1:]))
    if cap is None and shifted[-1] < 0.0 and changes == 1:
        low = hint
    else:
        margin = 1e-6 * max(1.0, abs(hint))
        for samples in (64, 256, 1024, 4096):
            xs = np.linspace(hint - margin, high, samples)
            negative = np.nonzero(np.polyval(np.array(coefficients, dtype=float), xs) < 0.0)[0]
            if negative.size:
                low = float(xs[negative[-1]])
                break
        else:
            raise AssertionError(f"no sign change above {hint} for {coefficients}")
    for _ in range(200):
        if high - low <= 1e-12:
            break
        mid = 0.5 * (low + high)
        f_mid = p(mid)
        if f_mid == 0.0:
            return mid
        if f_mid < 0.0:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def proves_greatest_root(coefficients, low, high):
    """p(low) < 0 and every Taylor coefficient p^(k)(high) / k! is > 0.

    Checked with Fractions from the derivatives, independently of the
    package's synthetic division: together they put the greatest real
    root of p in (low, high).
    """

    def value(coeffs, x):
        total = Fraction(0)
        for a in coeffs:
            total = total * x + a
        return total

    if not value(coefficients, Fraction(low)) < 0:
        return False
    current, high = list(coefficients), Fraction(high)
    for k in range(len(coefficients)):
        if not value(current, high) / math.factorial(k) > 0:
            return False
        degree = len(current) - 1
        current = [a * (degree - i) for i, a in enumerate(current[:-1])]
    return True
