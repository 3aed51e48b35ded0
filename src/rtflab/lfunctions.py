"""Dirichlet L-functions over Q: closed-form Laurent data and the jet rules.

The trivial character is ``DirichletCharacter.trivial()``, the character mod
1: its L-function is the Riemann zeta function and its completion
Lambda_zeta, with poles at s = 0 and s = 1.  Completed functions carry the
archimedean factor ``pi**(-s/2) Gamma(s/2)`` and the conductor power
``(m/pi)**(s/2)``.

Every character the Laurent routes here and `oracles.completed_l` accept
(`_is_trivial`: the trivial character mod 1 or a real even primitive one)
has root number 1, since tau(chi) = sqrt(m) (Gauss; the tests check it for
m <= 100).  So Lambda(s) = Lambda(1 - s) reaches Re(s) < 1/2 without the
gamma pole at s = 0, the Laurent data at 1 are real with residue 1 or 0, and
the epsilon factor at s = 0 is sqrt(m): no Gauss sum is computed.

Laurent data at s = 1 comes from closed forms in floats, without mpmath:
literals of the Stieltjes and polygamma formula for the completed zeta, and
for a real even primitive character the functional equation, which moves
the expansion to s = 0 where Lerch's formula (in its reflection form, a
sum of ``log sin``) and the Hurwitz-zeta second derivative
(Euler-Maclaurin) apply.  The edge
coefficients of the central-value series are composed from that data and a
literal jet of 1/Lambda_zeta at 2 by the order-2 jet product.  Jets are
tuples (f, f', f''/2) at the expansion point: ``jet_product`` multiplies
them, ``exp_jet`` gives the jet of an exponential (every power q**(a x)),
and ``jet_reciprocal`` that of 1/f, so the Taylor data of a formula is read
off by evaluating it on jets.

This module imports no mpmath.  The working-precision routes, the
Hurwitz-zeta evaluation of Lambda(s, chi) (`oracles.completed_l`), the zeta
ratio of the constant term and the symmetric stencil fits that cross-check
the closed forms, are in :mod:`rtflab.oracles`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

from ._record import record
from .characters import DirichletCharacter
from .special import EULER_GAMMA

# ---------------------------------------------------------------------------
# truncated power series ("jets") of order 2

Jet = tuple[float, float, float]


def jet_product(jets: Iterable[Jet]) -> Jet:
    """Product of power series truncated after order 2, each given by its
    coefficients (f, f', f''/2) at the expansion point."""
    a0, a1, a2 = 1.0, 0.0, 0.0
    for b0, b1, b2 in jets:
        a0, a1, a2 = a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0
    return a0, a1, a2


def exp_jet(rate: float, at: float) -> Jet:
    """Jet of e**(rate * x) at x = at; q**(a * x) is exp_jet(a * log q, at)."""
    v = math.exp(rate * at)
    return v, rate * v, 0.5 * rate * rate * v


def jet_reciprocal(jet: Jet) -> Jet:
    """Jet of 1/f from the jet of f; f must not vanish at the expansion point."""
    a0, a1, a2 = jet
    b0 = 1.0 / a0
    b1 = -a1 * b0 * b0
    return b0, b1, -(a1 * b1 + a2 * b0) * b0


# ---------------------------------------------------------------------------
# Laurent and edge data in closed form


@record
class LaurentData:
    """Laurent data (residue, constant, linear term) at an edge point."""

    residue: float
    c0: float
    c1: float


@record
class EdgeCoefficients:
    """Leading Laurent coefficients of a double-pole expansion."""

    c_minus2: float
    c_minus1: float
    c_zero: float


def _is_trivial(xi: DirichletCharacter) -> bool:
    """True for the trivial character mod 1, False for a real even primitive one.

    Raises ValueError for any other character, an imprimitive trivial one
    included: the closed forms use that the root number is 1 and the Laurent
    data are real.
    """
    if not (xi.order() <= 2 and xi.is_even() and xi.is_primitive()):
        raise ValueError("expected the trivial character mod 1 or a real even primitive character")
    return xi.modulus == 1


# Bernoulli numbers B_2, B_4, ..., B_16: the Euler-Maclaurin tail of
# `_hurwitz_d2_at_0`, whose first omitted term is below 1e-18 at N = 12.
_BERNOULLI_EVEN = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_EULER_MACLAURIN_N = 12


def _hurwitz_d2_at_0(x: float) -> float:
    """zeta''(0, x), the second s-derivative of the Hurwitz zeta at s = 0, for 0 < x <= 1.

    Euler-Maclaurin with the first N terms summed and u = N + x, L = log u:
    sum_{k<N} log(k + x)**2 - u (L**2 - 2 L + 2) + L**2 / 2
    + sum_{j<=8} 2 B_2j / (2j (2j - 1)) (H_{2j-2} - L) u**(1 - 2j),
    with H_i the harmonic numbers.  Measured bound: on x = i/400 it is within
    1.71e-14 absolute of float(mpmath.zeta(0, x, 2)), worst at x = 0.425
    (1.70e-14 from the exact value); a test holds it to 2e-14.
    """
    u = _EULER_MACLAURIN_N + x
    log_u = math.log(u)
    terms = [math.log(k + x) ** 2 for k in range(_EULER_MACLAURIN_N)]
    terms += [-u * (log_u * log_u - 2.0 * log_u + 2.0), 0.5 * log_u * log_u]
    harmonic, power = 0.0, 1.0 / u
    for j, bernoulli in enumerate(_BERNOULLI_EVEN, start=1):
        terms.append(2.0 * bernoulli / (2 * j * (2 * j - 1)) * (harmonic - log_u) * power)
        harmonic += 1.0 / (2 * j - 1) + 1.0 / (2 * j)
        power /= u * u
    return math.fsum(terms)


@lru_cache(maxsize=256)
def laurent_at_1(xi: DirichletCharacter) -> LaurentData:
    """Laurent data of the completed L-function at s = 1 over Q, in closed form.

    The trivial character gives the completed zeta:
    residue 1, c0 = (gamma - log 4 pi)/2 and
    c1 = -gamma_1 + a gamma + (a**2 + b)/2 with the Stieltjes constant
    gamma_1, a = (psi(1/2) - log pi)/2 and b = psi'(1/2)/4.  These are
    returned as float literals of that formula at 30 digits (a test
    recomputes them).

    A real even primitive chi mod m has root number 1, so
    Lambda(1 + h) = Lambda(-h): c0 = Lambda(0) = 2 L'(0) and
    c1 = -Lambda'(0) = -sum chi(a) zeta''(0, a/m) + (log(m pi) + gamma) L'(0),
    where L'(0) = sum chi(a) log Gamma(a/m) (Lerch).  The residue is 0, and
    c0 = Lambda(1) = sqrt(m) L(1, chi): c0 / sqrt(m) is the one route to
    L(1, chi).
    Since chi is even, pairing a with m - a by the reflection formula gives
    L'(0) = -sum_{a < m/2} chi(a) log sin(pi a / m), with half the terms and
    no lgamma: over the 30 even primitive quadratic conductors <= 100 it is
    within 2.9e-16 relative of the exact value (the lgamma sum, 1.9e-15).
    Both sums are taken in floats, zeta''(0, x) by `_hurwitz_d2_at_0`.
    `oracles.laurent_at_1_two_widths` is the independent stencil route.
    Cached on the character: `edge_coefficients` and the constants routes
    of `rtf_constants`, which take the character itself, all read it.
    """
    if _is_trivial(xi):
        return LaurentData(residue=1.0, c0=-0.976904291033879, c1=1.000248155568105)
    m = xi.modulus
    signs = [(a, 1 if k == 0 else -1) for a in range(m) if (k := xi.phase_index(a)) is not None]
    dl0 = -math.fsum(s * math.log(math.sin(math.pi * a / m)) for a, s in signs if 2 * a < m)
    d2 = math.fsum(s * _hurwitz_d2_at_0(a / m) for a, s in signs)
    c1 = -d2 + (math.log(m * math.pi) + EULER_GAMMA) * dl0
    return LaurentData(residue=0.0, c0=2.0 * dl0, c1=c1)


# Jet (f, f', f''/2) at h = 0 of 1/Lambda_zeta(2 - h): (1, A, (A**2 - B)/2)
# divided by Lambda_zeta(2) = pi/6, where A = (psi(1) - log pi)/2 + zeta'(2)/zeta(2)
# and B = psi'(1)/4 + zeta''(2)/zeta(2) - (zeta'(2)/zeta(2))**2; float literals
# of that formula at 30 digits (a test recomputes them).
_INV_ZETA_HAT2_JET = (1.909859317102744, -2.732882189869369, 0.7179696879667569)


def edge_coefficients(eta: DirichletCharacter) -> EdgeCoefficients:
    """Laurent coefficients (orders -2, -1, 0) at nu = -1 of the central-value
    series function Lambda((1+nu)/2) Lambda((1-nu)/2) / Lambda_zeta(1 - nu).

    At nu = -1 + h both L-factors equal Lambda(1 - h/2) by the functional
    equation, so h**2 f(h) is the jet product of h Lambda(1 - h/2) (twice)
    and 1/Lambda_zeta(2 - h).  The pole is double for the trivial
    character and absent otherwise (the residue is 0).  The stencil fit of
    `oracles.central_series_function` is the independent route.
    """
    lau = laurent_at_1(eta)
    # The value of h Lambda(1 - h/2) is -2r, written 0.0 - 2r so that r = 0
    # gives +0.0: -2.0 * 0.0 is -0.0, which the jet product carries into a
    # c_minus1 of -0.0 for every nontrivial eta.
    l_jet = (0.0 - 2.0 * lau.residue, lau.c0, -0.5 * lau.c1)
    c_minus2, c_minus1, c_zero = jet_product([l_jet, l_jet, _INV_ZETA_HAT2_JET])
    return EdgeCoefficients(c_minus2=c_minus2, c_minus1=c_minus1, c_zero=c_zero)
