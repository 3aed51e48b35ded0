"""Completed zeta and Dirichlet L-functions over Q, with their Laurent data.

Finite parts are evaluated through the Hurwitz-zeta representation
``L(s, chi) = m**(-s) * sum_a chi(a) zeta(s, a/m)`` at elevated working
precision (mpmath), which is valid in the entire s-plane.  Completed
functions carry the archimedean factor ``pi**(-s/2) Gamma(s/2)`` and the
conductor power ``(m/pi)**(s/2)``; the half plane Re(s) < 1/2 is reached
through the functional equation so the trivial zero at s = 0 never has to
fight the gamma pole numerically.

Laurent data at s = 1 comes from closed forms: Stieltjes and polygamma
constants for the completed zeta, and for a real even primitive character
the functional equation, which moves the expansion to s = 0 where Lerch's
formula and Hurwitz-zeta derivatives apply.  The edge coefficients of the
central-value series are composed from that data by the order-2 jet
product.  Jets are tuples (f, f', f''/2) at the expansion point:
``jet_product`` multiplies them, ``exp_jet`` gives the jet of an
exponential (every power q**(a x)), and ``jet_reciprocal`` that of 1/f, so
the Taylor data of a formula is read off by evaluating it on jets.
Symmetric stencil fits (a small Vandermonde solve in h**2 at working
precision) remain as the independent route the check suite and tests
compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import mpmath as mp

from .characters import DirichletCharacter, unit_group
from .errors import PoleError
from .fields import factorize

_DPS = 30


def _chi_values_mp(chi: DirichletCharacter) -> list:
    """chi(1), ..., chi(m) at working precision, from the integer phases."""
    m = chi.modulus
    L = unit_group(m).exponent
    vals = []
    for a in range(1, m + 1):
        k = chi.phase_index(a)
        if k is None:
            vals.append(mp.mpc(0))
        else:
            vals.append(mp.e ** (2j * mp.pi * (mp.mpf(k) / L)))
    return vals


def _gauss_adelic_mp(chi: DirichletCharacter):
    m = chi.modulus
    if m == 1:
        return mp.mpc(1)
    vals = _chi_values_mp(chi)
    tau = mp.fsum(
        vals[a - 1] * mp.e ** (2j * mp.pi * mp.mpf(a) / m) for a in range(1, m + 1)
    )
    return tau / mp.sqrt(m)


# ---------------------------------------------------------------------------
# working-precision evaluators (mp in, mp out)


def _zeta_fin_mp(s):
    return mp.zeta(s)


def _l_fin_mp(s, chi: DirichletCharacter):
    m = chi.modulus
    if m == 1:
        return mp.zeta(s)
    if chi.order() == 1:
        out = mp.zeta(s)
        for p, _ in factorize(m):
            out *= 1 - mp.mpf(p) ** (-s)
        return out
    vals = _chi_values_mp(chi)
    if abs(s - 1) < mp.mpf("1e-18"):
        return (
            -mp.fsum(
                vals[a - 1] * mp.digamma(mp.mpf(a) / m)
                for a in range(1, m + 1)
                if vals[a - 1] != 0
            )
            / m
        )
    return m ** (-s) * mp.fsum(
        vals[a - 1] * mp.zeta(s, mp.mpf(a) / m)
        for a in range(1, m + 1)
        if vals[a - 1] != 0
    )


def _completed_zeta_mp(s):
    s = mp.mpc(s)
    if s.real < 0.5:
        return _completed_zeta_mp(1 - s)
    return mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)


def _completed_l_mp(s, chi: DirichletCharacter):
    s = mp.mpc(s)
    if s.real < 0.5:
        return _gauss_adelic_mp(chi) * _completed_l_mp(1 - s, chi.conjugate())
    m = chi.modulus
    return (mp.mpf(m) / mp.pi) ** (s / 2) * mp.gamma(s / 2) * _l_fin_mp(s, chi)


# ---------------------------------------------------------------------------
# public complex-valued evaluators


def zeta_fin(s: complex) -> complex:
    """The Riemann zeta function (analytic continuation)."""
    if abs(complex(s) - 1.0) < 1e-14:
        raise PoleError("zeta pole at s = 1")
    with mp.workdps(_DPS):
        return complex(_zeta_fin_mp(mp.mpc(s)))


def l_fin(s: complex, chi: DirichletCharacter) -> complex:
    """Finite-part Dirichlet L-function of chi (imprimitive characters allowed)."""
    with mp.workdps(_DPS):
        return complex(_l_fin_mp(mp.mpc(s), chi))


def completed_zeta(s: complex) -> complex:
    """pi**(-s/2) Gamma(s/2) zeta(s); poles at s = 0 and s = 1."""
    s = complex(s)
    if abs(s) < 1e-14 or abs(s - 1.0) < 1e-14:
        raise PoleError(f"completed zeta pole at s = {s}")
    with mp.workdps(_DPS):
        return complex(_completed_zeta_mp(mp.mpc(s)))


def completed_l(s: complex, chi: DirichletCharacter) -> complex:
    """Completed L for an even primitive chi: (m/pi)**(s/2) Gamma(s/2) L_fin(s, chi).

    Entire for nontrivial chi; the half plane Re(s) < 1/2 is evaluated through
    the functional equation with epsilon = tau(chi)/sqrt(m).
    """
    if chi.order() == 1:
        if chi.modulus != 1:
            raise ValueError("completed_l of an imprimitive trivial character is not defined")
        return completed_zeta(s)
    if not (chi.is_even() and chi.is_primitive()):
        raise ValueError("completed_l expects an even primitive character")
    with mp.workdps(_DPS):
        return complex(_completed_l_mp(mp.mpc(s), chi))


def epsilon_of_minus_z(z: complex, chi: DirichletCharacter | None) -> complex:
    """Functional-equation epsilon factor evaluated at s = -z over Q.

    For an even primitive character of conductor m this is
    (tau(chi)/sqrt(m)) * m**(1/2 + z); for the trivial character it is 1.
    """
    if chi is None or chi.order() == 1:
        return 1.0 + 0.0j
    if not (chi.is_even() and chi.is_primitive()):
        raise ValueError("epsilon factor implemented for even primitive characters only")
    from .characters import adelic_gauss_sum

    m = chi.modulus
    return adelic_gauss_sum(chi) * m ** (0.5 + complex(z))


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


@dataclass(frozen=True)
class LaurentData:
    """Laurent data (residue, constant, linear term) at an edge point."""

    residue: float
    c0: float
    c1: float


@dataclass(frozen=True)
class EdgeCoefficients:
    """Leading Laurent coefficients of a double-pole expansion."""

    c_minus2: float
    c_minus1: float
    c_zero: float


def _is_trivial(xi: DirichletCharacter | None) -> bool:
    """True for the trivial character, False for a real even primitive one.

    Raises ValueError for any other character: the closed forms use that the
    root number is 1 and the Laurent data are real.
    """
    if xi is None or xi.order() == 1:
        return True
    if not (xi.order() == 2 and xi.is_even() and xi.is_primitive()):
        raise ValueError("expected the trivial or a real even primitive character")
    return False


@lru_cache(maxsize=256)
def laurent_at_1(xi: DirichletCharacter | None) -> LaurentData:
    """Laurent data of the completed L-function at s = 1 over Q, in closed form.

    ``xi=None`` (or the trivial character) means the completed zeta:
    residue 1, c0 = (gamma - log 4 pi)/2 and
    c1 = -gamma_1 + a gamma + (a**2 + b)/2 with the Stieltjes constant
    gamma_1, a = (psi(1/2) - log pi)/2 and b = psi'(1/2)/4.

    A real even primitive chi mod m has root number 1, so
    Lambda(1 + h) = Lambda(-h): c0 = Lambda(0) = 2 L'(0) and
    c1 = -Lambda'(0) = -sum chi(a) zeta''(0, a/m) + (log(m pi) + gamma) L'(0),
    where L'(0) = sum chi(a) log Gamma(a/m) (Lerch).  The residue is 0.
    :func:`laurent_at_1_two_widths` is the independent stencil route.
    Cached on the character: `eta_context` and `edge_coefficients` both
    read it.
    """
    with mp.workdps(_DPS):
        if _is_trivial(xi):
            a = (mp.digamma(mp.mpf(0.5)) - mp.log(mp.pi)) / 2
            b = mp.psi(1, mp.mpf(0.5)) / 4
            c1 = -mp.stieltjes(1) + a * mp.euler + (a * a + b) / 2
            return LaurentData(residue=1.0, c0=float(mp.euler + a), c1=float(c1))
        m = xi.modulus
        signs = [
            (a, 1 if k == 0 else -1) for a in range(m) if (k := xi.phase_index(a)) is not None
        ]
        dl0 = mp.fsum(s * mp.loggamma(mp.mpf(a) / m) for a, s in signs)
        d2 = mp.fsum(s * mp.zeta(0, mp.mpf(a) / m, 2) for a, s in signs)
        c1 = -d2 + (mp.log(m * mp.pi) + mp.euler) * dl0
        return LaurentData(residue=0.0, c0=float(2 * dl0), c1=float(c1))


def edge_coefficients(
    eta: DirichletCharacter | None, discriminant_abs: int = 1
) -> EdgeCoefficients:
    """Laurent coefficients (orders -2, -1, 0) at nu = -1 of the central-value
    series function of :func:`central_series_function`.

    At nu = -1 + h both L-factors equal Lambda(1 - h/2) by the functional
    equation, so h**2 f(h) is the jet product of h Lambda(1 - h/2) (twice),
    D**(nu/2) and 1/Lambda_zeta(2 - h).  The pole is double for the trivial
    character and absent otherwise (the residue is 0).  The stencil fit of
    ``central_series_function`` is the independent route.
    """
    lau = laurent_at_1(eta)
    with mp.workdps(_DPS):
        z0, z1, z2 = (mp.zeta(2, 1, k) for k in range(3))
        A = (mp.digamma(1) - mp.log(mp.pi)) / 2 + z1 / z0
        B = mp.psi(1, 1) / 4 + z2 / z0 - (z1 / z0) ** 2
        inv_zeta_hat2 = 1 / _completed_zeta_mp(mp.mpf(2)).real
        zeta_jet = tuple(float(inv_zeta_hat2 * c) for c in (1, A, (A * A - B) / 2))
    l_jet = (-2.0 * lau.residue, lau.c0, -0.5 * lau.c1)
    d_jet = exp_jet(math.log(discriminant_abs) / 2.0, -1.0)
    c_minus2, c_minus1, c_zero = jet_product([l_jet, l_jet, d_jet, zeta_jet])
    return EdgeCoefficients(c_minus2=c_minus2, c_minus1=c_minus1, c_zero=c_zero)


# ---------------------------------------------------------------------------
# stencil extraction: the independent cross-check route

_STENCIL_WIDTH = 1e-2
_CHECK_WIDTH = 5e-3
_STENCIL_LEVELS = 4


def extract_series(f: Callable, center: float, pole_order: int, width: float) -> list[float]:
    """First ``2 * _STENCIL_LEVELS`` Taylor coefficients of
    h**pole_order * f(center + h).

    Symmetric stencils at widths width / 2**i; even and odd parts are fit
    separately by a Vandermonde solve in h**2.  All arithmetic happens at
    working precision, so ``f`` may return mpmath values (preferred) or plain
    complex.
    """
    levels = _STENCIL_LEVELS
    with mp.workdps(_DPS):
        evens, odds, ts = [], [], []
        for i in range(levels):
            h = mp.mpf(width) / 2**i
            gp = mp.mpc(f(center + h)) * h**pole_order
            gm = mp.mpc(f(center - h)) * (-h) ** pole_order
            evens.append((gp + gm) / 2)
            odds.append((gp - gm) / (2 * h))
            ts.append(h * h)
        v = mp.matrix([[t**j for j in range(levels)] for t in ts])
        even_coeffs = mp.lu_solve(v, mp.matrix(evens))
        odd_coeffs = mp.lu_solve(v, mp.matrix(odds))
        # coefficients a_0, a_1, a_2, ... of g(h)
        return [float(mp.re(c[j])) for j in range(levels) for c in (even_coeffs, odd_coeffs)]


def laurent_at_1_two_widths(xi: DirichletCharacter | None) -> tuple[LaurentData, LaurentData]:
    """Laurent data at s = 1 fitted by stencils at two base widths.

    The residue of the completed zeta is extracted, not assumed.  The two
    results are compared with each other and with :func:`laurent_at_1` by
    the check suite.
    """
    pole = 1 if _is_trivial(xi) else 0
    f = _completed_zeta_mp if pole else (lambda s: _completed_l_mp(s, xi))
    # A regular point has residue 0: pad the fitted coefficients accordingly.
    first, second = (
        LaurentData(*([0.0] * (1 - pole) + extract_series(f, 1.0, pole, w))[:3])
        for w in (_STENCIL_WIDTH, _CHECK_WIDTH)
    )
    return first, second


def central_series_function(
    eta: DirichletCharacter | None, discriminant_abs: int = 1
) -> Callable:
    """The meromorphic function whose edge Laurent data feeds the residual
    constants: D**(nu/2) L((1+nu)/2) L((1-nu)/2) / zeta_completed(1 - nu).

    Returns a working-precision callable (mp in, mp out; plain complex also
    accepted)."""

    trivial = _is_trivial(eta)

    def f(nu):
        nu = mp.mpc(nu)
        prefactor = mp.mpf(discriminant_abs) ** (nu / 2)
        if trivial:
            num = _completed_zeta_mp((1 + nu) / 2) * _completed_zeta_mp((1 - nu) / 2)
        else:
            num = _completed_l_mp((1 + nu) / 2, eta) * _completed_l_mp((1 - nu) / 2, eta)
        return prefactor * num / _completed_zeta_mp(1 - nu)

    return f
