"""Complex gamma, log-gamma, digamma and the gamma ratio of the real place.

The gamma function is a Lanczos approximation (Godfrey's 15-term coefficient
set, g = 607/128), accurate to about 14 significant digits on the half plane
Re(z) >= 1/2 and extended by the reflection formula.  The digamma function
uses the downward recurrence into the asymptotic (Bernoulli-series) region.
`orbit_gamma_ratio`, G(s) = Gamma((s+1)/4)**2 / Gamma((s+3)/4)**2, is the
one gamma ratio of the real place: the orbit factor is -G(s)/8 and the
spectral weight y tanh(pi y/2) |G(iy)| / (4 pi), which the check suite
compares with a product of Lanczos gammas (`oracles.lambda_inf_gamma_product`).
"""

from __future__ import annotations

import cmath
import math

from .errors import PoleError

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

EULER_GAMMA = 0.5772156649015328606065120900824024


_POLE_TOL = 1e-13


def _is_nonpositive_integer(z: complex) -> bool:
    return abs(z.imag) < _POLE_TOL and z.real <= 0.5 and abs(z.real - round(z.real)) < _POLE_TOL


def _lanczos(z: complex) -> tuple[complex, complex, complex]:
    """(w, t, acc) of the Lanczos series at z: w = z - 1, t = w + g + 1/2."""
    w = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (w + k)
    return w, w + _LANCZOS_G + 0.5, acc


def gamma(z: complex) -> complex:
    """Complex gamma via Lanczos; poles at 0, -1, -2, ... raise PoleError."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z}")
    if z.real < 0.5:
        # Reflection: gamma(z) = pi / (sin(pi z) gamma(1 - z))
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    w, t, acc = _lanczos(z)
    return _SQRT_TWO_PI * t ** (w + 0.5) * cmath.exp(-t) * acc


def log_gamma(z: complex) -> complex:
    """Principal-branch log-gamma on Re(z) > 0; avoids overflow for large |z|."""
    z = complex(z)
    if z.real <= 0.0:
        raise PoleError(f"log_gamma requires Re(z) > 0, got {z}")
    w, t, acc = _lanczos(z)
    return 0.5 * math.log(2.0 * math.pi) + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)


# Bernoulli numbers B_2 .. B_14 for the digamma asymptotic series.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def digamma(z: complex | float) -> complex | float:
    """Digamma by recurrence into the asymptotic region |z| >= 12.

    Accepts real or complex arguments; returns the same kind.  Poles at the
    nonpositive integers raise PoleError.
    """
    was_real = isinstance(z, (int, float))
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"digamma pole at z = {z}")
    value = 0.0 + 0.0j
    if z.real < 0.0:
        # Reflection: psi(z) = psi(1-z) - pi cot(pi z), with Re z reduced
        # mod 1 (exactly) before the product with pi: tan(pi z) itself is
        # 3.8e-13 off at z = -749.75 and 9.4e-11 at -1e6 - 0.25.
        value -= math.pi / cmath.tan(math.pi * (z - round(z.real)))
        z = 1.0 - z
    while z.real < 12.0:
        value -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    series = 0.0 + 0.0j
    power = inv2
    for n, b2n in enumerate(_BERNOULLI, start=1):
        series += b2n / (2 * n) * power
        power *= inv2
    value += cmath.log(z) - 0.5 / z - series
    if was_real and abs(value.imag) < 1e-14 * max(1.0, abs(value.real)):
        return value.real
    return value


# Euler numbers E_2, E_4, ..., E_14 over 2k: with a = (s+1)/4 = s/4 + 1/4 and
# b = a + 1/2, the Bernoulli-polynomial series of
# ln Gamma(z + x) - ln Gamma(z + y) (DLMF 5.11.8, the log form of 5.11.13)
# at z = s/4, x = 1/4, y = 3/4 gives
# Gamma(a)**2 / Gamma(b)**2 = (4/s) exp(sum_k E_2k / (2k s**2k)), since
# B_n(3/4) = (-1)**n B_n(1/4) and B_2k+1(1/4) = -(2k+1) E_2k / 4**(2k+1).
_RATIO_SERIES = tuple(e / (2 * k) for k, e in enumerate(
    (-1, 5, -61, 1385, -50521, 2702765, -199360981), start=1))
# Where the series takes over: |s| >= 50 in the half plane Re s >= 0.  The
# Lanczos difference 2 (log_gamma(a) - log_gamma(b)) cancels two values of
# size |a log a|, so it loses about that many units in the last place:
# 3.4e-15 relative at s = 50, 1.9e-7 at 1e9, all of it at 1e15, and a == b
# in floats at 1e20.  The first term the series leaves out,
# E_16 / (16 s**16), is 7.9e-19 at |s| = 50, and in the half plane the
# remainder stays of that order, so there the series is exact to rounding
# (within 3e-16 relative of mpmath from |s| = 50 to 1e300).
_RATIO_SERIES_FROM = 50.0


def orbit_gamma_ratio(s: complex) -> complex:
    """G(s) = Gamma(a)**2 / Gamma(a + 1/2)**2 with a = (s+1)/4.

    Re s >= 0: the series `_RATIO_SERIES` where |s| >= 50, the Lanczos
    log-gamma difference below.  Re s < 0: by reflection,
    Gamma(a) / Gamma(a + 1/2) = cot(pi a) Gamma(1/2 - a) / Gamma(1 - a), the
    same ratio at -s.  Re a is reduced mod 1 (exactly, through s mod 4)
    before the product with pi; unreduced, tan is 8.4e-13 off at s = -3000.
    Poles at s = -1, -5, ... (PoleError); at s = -3, -7, ... G is 0 to about
    1e-31, since tan(pi/2) is finite in floats.
    """
    s = complex(s)
    if s.real < 0.0:
        r = (math.fmod(s.real, 4.0) + 1.0) / 4.0
        t = cmath.tan(math.pi * complex(r - round(r), s.imag / 4.0))
        if abs(t) < 1e-13:
            raise PoleError(f"orbit factor pole at s = {s}")
        return orbit_gamma_ratio(-s) / (t * t)
    if abs(s) >= _RATIO_SERIES_FROM:
        inv = 1.0 / s
        u, series = inv * inv, 0.0
        for c in reversed(_RATIO_SERIES):
            series = u * (c + series)
        return 4.0 * inv * cmath.exp(series)
    return cmath.exp(2.0 * (log_gamma((s + 1.0) / 4.0) - log_gamma((s + 3.0) / 4.0)))
