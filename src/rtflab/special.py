"""Complex gamma, log-gamma and digamma kernels.

The gamma function is a Lanczos approximation (Godfrey's 15-term coefficient
set, g = 607/128), accurate to about 14 significant digits on the half plane
Re(z) >= 1/2 and extended by the reflection formula.  The digamma function
uses the downward recurrence into the asymptotic (Bernoulli-series) region.
Both are deliberately self-contained so they can be cross-checked against
closed reflection formulas by independent routes: |gamma(i y / 2)|**(-2)
through the Lanczos kernel (`oracles.abs_gamma_iy_sq_inv_lanczos`) against
its closed form `abs_gamma_iy_sq_inv`.
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


def gamma_r(s: complex) -> complex:
    """Archimedean zeta factor pi**(-s/2) * gamma(s/2); poles at 0, -2, -4, ..."""
    s = complex(s)
    if _is_nonpositive_integer(s / 2.0):
        raise PoleError(f"gamma_r pole at s = {s}")
    return cmath.exp(-0.5 * s * math.log(math.pi)) * gamma(s / 2.0)


def abs_gamma_iy_sq_inv(y: float) -> float:
    """|gamma(i y / 2)|**(-2) by the reflection closed form (y/2) sinh(pi y/2) / pi."""
    y = abs(float(y))
    return (y / 2.0) * math.sinh(math.pi * y / 2.0) / math.pi
