"""Completed zeta and Dirichlet L-functions over Q, with Laurent extraction.

Finite parts are evaluated through the Hurwitz-zeta representation
``L(s, chi) = m**(-s) * sum_a chi(a) zeta(s, a/m)`` at elevated working
precision (mpmath), which is valid in the entire s-plane.  Completed
functions carry the archimedean factor ``pi**(-s/2) Gamma(s/2)`` and the
conductor power ``(m/pi)**(s/2)``; the half plane Re(s) < 1/2 is reached
through the functional equation so the trivial zero at s = 0 never has to
fight the gamma pole numerically.

Laurent data at a point is extracted from symmetric stencils at several
halved widths (a small Vandermonde solve in h**2, performed entirely at
working precision), giving near machine-level accuracy without any closed
form.  Two independent base widths must agree; disagreement raises instead
of being silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import mpmath as mp

from .characters import DirichletCharacter, unit_group
from .errors import PoleError, StencilDisagreementError
from .fields import factorize

_DPS = 30


def _chi_values_mp(chi: DirichletCharacter) -> list:
    """chi(1), ..., chi(m) at working precision, from the integer phases."""
    m = chi.modulus
    L = unit_group(m).exponent
    phases = chi.phases().tolist()
    vals = []
    for a in range(1, m + 1):
        k = phases[a % m]
        if k < 0:
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
# Laurent extraction


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


def extract_series(
    f: Callable,
    center: float,
    pole_order: int,
    width: float,
    levels: int = 4,
) -> list[float]:
    """First ``2 * levels`` Taylor coefficients of h**pole_order * f(center + h).

    Symmetric stencils at widths width / 2**i; even and odd parts are fit
    separately by a Vandermonde solve in h**2.  All arithmetic happens at
    working precision, so ``f`` may return mpmath values (preferred) or plain
    complex.
    """
    with mp.workdps(_DPS):
        evens, odds, ts = [], [], []
        for i in range(levels):
            h = mp.mpf(width) / 2**i
            gp = mp.mpc(f(center + h)) * h**pole_order
            gm = mp.mpc(f(center - h)) * (-h) ** pole_order
            evens.append((gp + gm) / 2)
            odds.append((gp - gm) / (2 * h))
            ts.append(h * h)
        v = mp.matrix(levels, levels)
        for r in range(levels):
            for j in range(levels):
                v[r, j] = ts[r] ** j
        even_coeffs = mp.lu_solve(v, mp.matrix(evens))
        odd_coeffs = mp.lu_solve(v, mp.matrix(odds))
        out = []
        for j in range(levels):
            out.append(float(mp.re(even_coeffs[j])))
            out.append(float(mp.re(odd_coeffs[j])))
        return out  # coefficients a_0, a_1, a_2, ... of g(h)


def pole_order_scan(
    f: Callable,
    center: float,
    max_order: int = 4,
    width: float = 1e-2,
) -> int:
    """Estimate the pole order of f at center from log-log growth of |f|."""
    with mp.workdps(_DPS):
        h1 = mp.mpf(width)
        h2 = h1 / 4
        v1 = abs(mp.mpc(f(center + h1)))
        v2 = abs(mp.mpc(f(center + h2)))
        if v1 == 0 or v2 == 0:
            return 0
        slope = (mp.log(v2) - mp.log(v1)) / (mp.log(h2) - mp.log(h1))
        order = -int(mp.nint(slope))
    return max(0, min(max_order, order))


def laurent_at_1(
    xi: DirichletCharacter | None,
    width: float = 1e-2,
    check_width: float = 5e-3,
    tol: float = 1e-7,
) -> LaurentData:
    """Laurent data of the completed L-function at s = 1 over Q.

    ``xi=None`` (or the trivial character) means the completed zeta, whose
    residue is extracted, not assumed.  Nontrivial characters have residue 0
    by construction.  The two stencil widths must agree within ``tol``.
    """
    first, second = laurent_at_1_two_widths(xi, width, check_width)
    for a, b, name in (
        (first.residue, second.residue, "residue"),
        (first.c0, second.c0, "c0"),
        (first.c1, second.c1, "c1"),
    ):
        if abs(a - b) > tol:
            raise StencilDisagreementError(
                f"laurent {name} stencil widths disagree: {a!r} vs {b!r}"
            )
    return second


def laurent_at_1_two_widths(
    xi: DirichletCharacter | None,
    width: float = 1e-2,
    check_width: float = 5e-3,
) -> tuple[LaurentData, LaurentData]:
    trivial = xi is None or xi.order() == 1

    if trivial:
        out = []
        for w in (width, check_width):
            a = extract_series(_completed_zeta_mp, 1.0, 1, w)
            out.append(LaurentData(residue=a[0], c0=a[1], c1=a[2]))
        return out[0], out[1]

    assert xi is not None
    if not (xi.is_even() and xi.is_primitive()):
        raise ValueError("laurent_at_1 expects the trivial or an even primitive character")

    out = []
    for w in (width, check_width):
        a = extract_series(lambda s: _completed_l_mp(s, xi), 1.0, 0, w)
        out.append(LaurentData(residue=0.0, c0=a[0], c1=a[1]))
    return out[0], out[1]


def central_series_function(
    eta: DirichletCharacter | None, discriminant_abs: int = 1
) -> Callable:
    """The meromorphic function whose edge Laurent data feeds the residual
    constants: D**(nu/2) L((1+nu)/2) L((1-nu)/2) / zeta_completed(1 - nu).

    Returns a working-precision callable (mp in, mp out; plain complex also
    accepted)."""

    trivial = eta is None or eta.order() == 1

    def f(nu):
        nu = mp.mpc(nu)
        prefactor = mp.mpf(discriminant_abs) ** (nu / 2)
        if trivial:
            num = _completed_zeta_mp((1 + nu) / 2) * _completed_zeta_mp((1 - nu) / 2)
        else:
            num = _completed_l_mp((1 + nu) / 2, eta) * _completed_l_mp((1 - nu) / 2, eta)
        return prefactor * num / _completed_zeta_mp(1 - nu)

    return f


def edge_coefficients(
    eta: DirichletCharacter | None,
    discriminant_abs: int = 1,
    width: float = 1e-2,
    check_width: float = 5e-3,
    tol: float = 1e-7,
) -> EdgeCoefficients:
    """Laurent coefficients at nu = -1 of the central-value series function.

    The pole order is detected, never assumed; the expansion is extracted as
    if the pole were double (coefficients of spurious orders come out zero).
    Two stencil widths must agree within ``tol``.
    """
    f = central_series_function(eta, discriminant_abs)
    with mp.workdps(_DPS):
        order = pole_order_scan(f, -1.0, width=width)
        if order > 2:
            raise ArithmeticError(f"unexpected pole order {order} at the edge point")
        results = []
        for w in (width, check_width):
            a = extract_series(f, -1.0, 2, w)
            results.append(EdgeCoefficients(c_minus2=a[0], c_minus1=a[1], c_zero=a[2]))
    first, second = results
    for a, b, name in (
        (first.c_minus2, second.c_minus2, "c_minus2"),
        (first.c_minus1, second.c_minus1, "c_minus1"),
        (first.c_zero, second.c_zero, "c_zero"),
    ):
        if abs(a - b) > tol:
            raise StencilDisagreementError(
                f"edge coefficient {name} stencil widths disagree: {a!r} vs {b!r}"
            )
    return second
