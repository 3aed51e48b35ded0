"""Explicit constants of the moment identity: level constants, edge Laurent
data, the residual/Eisenstein constant family, and the orbit-side kernels.

The per-place building blocks come in two families.  The *edge place factors*
(functions of the continuous parameter, expanded at the edge point -1)
assemble into the Taylor data of a product over the support of a choice
assignment.  The *residue place factors* (functions of a twisting variable z,
expanded at 0) assemble into the constants of the residual spectrum
contribution.  Both take the place as plain integers, its norm q and the
depth k >= 1, and the edge factors also the sign of the character there;
`_depth_norm` is the normalization they share with the flat section and the
residue value.  Each factor's jet (f, f', f''/2) is read off its formula by
evaluating that formula on jets with the jet rules of :mod:`lfunctions`
(``exp_jet`` for every power of q, ``jet_reciprocal``, ``jet_product``); the
factor functions themselves are the independent route, compared with the
jets by finite differences in the check suite and the tests.  Sums over
choice assignments are taken as products over places of per-place sums; the
enumeration of every assignment, their independent route, is in
:mod:`rtflab.oracles`.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Iterable, Mapping

from .characters import DirichletCharacter
from .errors import DomainError, PoleError, RamifiedOverlapError
from .fields import FinitePlace, LevelIdeal, Place, index_k0, place_sort_key
from .lfunctions import (
    EdgeCoefficients,
    Jet,
    LaurentData,
    _INV_ZETA_HAT2_JET,
    edge_coefficients,
    exp_jet,
    jet_product,
    jet_reciprocal,
    laurent_at_1,
)
from .special import EULER_GAMMA, digamma, orbit_gamma_ratio

# ---------------------------------------------------------------------------
# level constants


def level_constant(n: LevelIdeal) -> float:
    """The density constant of the level family: a product over the places of
    exponent two of 1 - (q**2 - q)**(-1) and, over exponents three and more,
    of 1 - q**(-2).  Equals 1 on squarefree levels."""
    out = 1.0
    for place, e in n.factors:
        q = place.q
        if e == 2:
            out *= 1.0 - 1.0 / (q * q - q)
        elif e >= 3:
            out *= 1.0 - 1.0 / (q * q)
    return out


# ---------------------------------------------------------------------------
# sums over choice assignments: a depth 0 <= k_v <= e_v at each place v of
# the level n, that is, the divisor d = prod v**k_v of n


def _depth_norm(q: int, k: int) -> float:
    """The depth normalization of the local vectors: 1 at depth one,
    ((q+1)/(q-1))**(1/2) at depth two or more (`ValueError` below one)."""
    if k < 1:
        raise ValueError("depth must be >= 1")
    return 1.0 if k == 1 else math.sqrt((q + 1.0) / (q - 1.0))


def _section_factor(place: FinitePlace, k: int, s: int) -> float:
    """Per-place factor of the flat section at depth k >= 1: `DomainError`
    when q**(k/2) overflows a float (the factor before it is below 1)."""
    q = place.q
    if k == 1:
        return s * math.sqrt(q)
    try:
        return (1.0 - 1.0 / q) * s**k * _depth_norm(q, k) * q ** (k / 2.0)
    except OverflowError:
        raise DomainError(f"flat section at {place.label} is not finite in floats at depth {k}") from None


def assignment_sum(
    n: LevelIdeal,
    section: DirichletCharacter,
    jet_at: Callable[[FinitePlace, int], Jet],
) -> Jet:
    """Sum over every divisor d of n of (section(d) + [d = (1)]) times the jet
    product of jet_at(place, k) over the factors v**k of d, section(d) being
    the flat section of the character ``section`` (its `sign_at` each place).

    Both factors are products over places, so the sum over the prod(e_v + 1)
    divisors equals the unit-ideal term plus the product over places of the
    local sums 1 + sum_k section_v(k) jet_v(k): O(sum e_v) work.
    """
    local = []
    for place, e in n.factors:
        s = section.sign_at(place)
        acc = (1.0, 0.0, 0.0)
        for k in range(1, e + 1):
            w = _section_factor(place, k, s)
            acc = tuple(a + w * b for a, b in zip(acc, jet_at(place, k)))
        local.append(acc)
    p0, p1, p2 = jet_product(local)
    return 1.0 + p0, p1, p2


# ---------------------------------------------------------------------------
# edge place factors and their jets


def edge_place_factor(nu: complex, q: int, k: int, sign: int) -> complex:
    """C {q + 1 + sign (q**((1+nu)/2) + q**((1-nu)/2))} q**(k nu / 2) / (q - q**nu)
    at a place of norm q and depth k >= 1, with C = `_depth_norm`."""
    norm = _depth_norm(q, k)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    nu = complex(nu)
    qnu = q**nu
    if abs(q - qnu) < 1e-13 * q:
        raise PoleError(f"edge factor pole at nu = {nu}")
    bracket = q + 1.0 + sign * (q ** ((1.0 + nu) / 2.0) + q ** ((1.0 - nu) / 2.0))
    return norm * bracket * q ** (k * nu / 2.0) / (q - qnu)


def edge_place_jet(q: int, k: int, sign: int) -> Jet:
    """Jet (f, f', f''/2) at nu = -1 of :func:`edge_place_factor`, read off its
    formula term by term.  The bracket's powers are taken in h = 1 + nu,
    q**((1+nu)/2) = e**(h log q / 2) and q**((1-nu)/2) = q e**(-h log q / 2),
    so their values are exactly 1 and q and the value is exactly 0 for sign -1.
    """
    norm = _depth_norm(q, k)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    lq = math.log(q)
    bracket = tuple(
        c + sign * (u + q * d)
        for c, u, d in zip((q + 1.0, 0.0, 0.0), exp_jet(lq / 2.0, 0.0), exp_jet(-lq / 2.0, 0.0))
    )
    den = tuple(c - x for c, x in zip((float(q), 0.0, 0.0), exp_jet(lq, -1.0)))
    jet = jet_product([bracket, exp_jet(k * lq / 2.0, -1.0), jet_reciprocal(den)])
    return tuple(norm * c for c in jet)


# ---------------------------------------------------------------------------
# residue place factors and their jets


def residue_place_factor(z: complex, q: int, k: int) -> complex:
    """The per-place factor of the residual constant as a function of z, at a
    place of norm q and depth k >= 1."""
    z = complex(z)
    if k == 1:
        return (q**z - 1.0) * q**-0.5 / (1.0 - 1.0 / q)
    poly = (
        q ** (k * z)
        - q ** ((k - 1) * z) / q
        - q ** ((k - 1) * z)
        + q ** ((k - 2) * z) / q
    )
    return poly * _depth_norm(q, k) * q ** (-k / 2.0) / (1.0 - q**-2)


def residue_place_jet(q: int, k: int) -> Jet:
    """Jet (f, f', f''/2) at z = 0 of :func:`residue_place_factor`: the same
    sum of q**(j z) terms, each term an :func:`exp_jet`."""
    if k == 1:
        terms = ((1.0, 1), (-1.0, 0))
        scale = q**-0.5 / (1.0 - 1.0 / q)
    else:
        terms = ((1.0, k), (-1.0 / q, k - 1), (-1.0, k - 1), (1.0 / q, k - 2))
        scale = _depth_norm(q, k) * q ** (-k / 2.0) / (1.0 - q**-2)
    jet = (0.0, 0.0, 0.0)
    for c, j in terms:
        jet = tuple(a + c * b for a, b in zip(jet, exp_jet(j * math.log(q), 0.0)))
    return tuple(scale * a for a in jet)


# ---------------------------------------------------------------------------
# the residual term constant


def _value_factor(q: int, k: int, s: int) -> float:
    """Per-place factor of the residue value at (1/2, 1), depth k >= 1."""
    if k == 1:
        return (s - 1.0) * q**-0.5 / (1.0 - 1.0 / q)
    return s**k * (s - 1.0) * (s - 1.0 / q) / (1.0 - q**-2) * _depth_norm(q, k) * q ** (-k / 2.0)


def _residual_combination(laurent: LaurentData, twisted_zero: float, twisted_d2: float) -> float:
    """The residual term constant as a function of the twisted value b0 and the
    twisted second derivative d2, linear in both:
    -d2 r**2 / 2 - 2 b0 r c1 + b0 c0**2 with (r, c0, c1) the character's
    Laurent data (r = 0 leaves b0 c0**2)."""
    r, c0, c1 = laurent.residue, laurent.c0, laurent.c1
    return -0.5 * twisted_d2 * r * r - 2.0 * twisted_zero * r * c1 + twisted_zero * c0**2


# ---------------------------------------------------------------------------
# the spectral edge constants


def spectral_edge_constant(n: LevelIdeal, eta: DirichletCharacter, order: int) -> float:
    """The constant of the stated order (2, 1, 0 or -1) in the edge expansion
    of the residual-plus-degenerate spectral contribution at level n, for the
    trivial or an even primitive quadratic character eta over Q (`ValueError`
    otherwise, from `lfunctions`).

    Orders 2..0 weight the choice-assignment sums by the character's flat
    section and the edge Taylor data (`edge_coefficients`); order -1 uses the
    trivial section, the residual term constants and the Laurent data
    (`laurent_at_1`).  Orders 2..0 enter the moment identity only for an
    everywhere-unramified character, but are defined for any level.  Every
    sum over assignments is taken as a product over places
    (:func:`assignment_sum`); `oracles.edge_constants_by_enumeration`, one
    term per assignment, is the independent route.
    """
    if order not in (2, 1, 0, -1):
        raise ValueError("order must be one of 2, 1, 0, -1")
    if order == -1:
        laurent = laurent_at_1(eta)
        trivial = DirichletCharacter.trivial()
        value = assignment_sum(
            n, trivial, lambda p, k: (_value_factor(p.q, k, eta.sign_at(p)), 0.0, 0.0)
        )[0]
        residue = assignment_sum(n, trivial, lambda p, k: residue_place_jet(p.q, k))
        # root number 1: epsilon(0) = sqrt(m); the weight is 1 / Lambda_zeta(2)
        eps0 = math.sqrt(eta.modulus)
        return _INV_ZETA_HAT2_JET[0] * _residual_combination(laurent, eps0 * value, 2.0 * residue[2])
    e: EdgeCoefficients = edge_coefficients(eta)
    t0, t1, t2 = assignment_sum(n, eta, lambda p, k: edge_place_jet(p.q, k, eta.sign_at(p)))
    if order == 2:
        return 0.5 * t0 * e.c_minus2
    if order == 1:
        return e.c_minus1 * t0 + e.c_minus2 * t1
    return e.c_minus2 * t2 + e.c_minus1 * t1 + e.c_zero * t0


# ---------------------------------------------------------------------------
# orbit-side kernels


def unipotent_orbit_factor(s_by_place: Mapping[Place, complex], eta: DirichletCharacter) -> complex:
    """Product over S of the orbit-side archimedean and finite factors.

    Archimedean: -G(s)/8 with G(s) = Gamma((s+1)/4)**2 / Gamma((s+3)/4)**2
    (`special.orbit_gamma_ratio`).  Finite:
    (1 - q**((s+1)/2))**(-1) (1 - eta(q) q**(-(s+1)/2))**(-1), with eta(q)
    its sign at the place (`DirichletCharacter.sign_at`).
    """
    out = 1.0 + 0.0j
    for place in sorted(s_by_place, key=place_sort_key):
        s = complex(s_by_place[place])
        try:
            if isinstance(place, FinitePlace):
                q = place.q
                up = q ** ((s + 1.0) / 2.0)
                sign = eta.sign_at(place)
                if abs(1.0 - up) < 1e-13 or abs(1.0 - sign / up) < 1e-13:
                    raise PoleError(f"orbit factor pole at {place.label}, s = {s}")
                out /= (1.0 - up) * (1.0 - sign / up)
            else:
                out *= -0.125 * orbit_gamma_ratio(s)
        except (OverflowError, ZeroDivisionError):
            raise _not_finite("orbit factor", place, s) from None
        if not cmath.isfinite(out):
            raise _not_finite("orbit factor", place, s)
    return out


def _not_finite(what: str, place: Place, s: complex) -> DomainError:
    """The error for a float overflow or a non-finite value at one place of S."""
    return DomainError(f"{what} at {place.label} is not finite in floats at s = {s}")


def unipotent_orbit_constant(
    s_by_place: Mapping[Place, complex],
    a_ideal: LevelIdeal,
    eta: DirichletCharacter,
) -> complex:
    """The additive orbit-side constant attached to an ideal and an s-tuple,
    read off the Laurent data of eta at 1 (`laurent_at_1`).

    For a character without residue (nontrivial) this collapses to the
    constant term c0 = Lambda(1, eta), independent of the ideal and of s.  For the
    trivial character the residue multiplies a bracket with the log of
    N(a)**(1/2), digamma terms at the archimedean place and geometric
    series terms at the finite places.  Its value at S = {} and a = n,
    c0 + residue * {(gamma + 2 log 2 - log pi)/2 + log(N(n)**(1/2))},
    is the constant C_eta of the second-moment asymptotic at level n.
    """
    laurent = laurent_at_1(eta)
    c0, r = laurent.c0, laurent.residue
    if r == 0.0:
        return complex(c0)
    bracket: complex = 0.5 * a_ideal.log_norm()
    bracket += 0.5 * (EULER_GAMMA + 2.0 * math.log(2.0) - math.log(math.pi))
    for place in sorted(s_by_place, key=place_sort_key):
        s = complex(s_by_place[place])
        try:
            if isinstance(place, FinitePlace):
                q = place.q
                up = q ** ((s + 1.0) / 2.0)
                if abs(1.0 - up) < 1e-13:
                    raise PoleError(f"orbit constant pole at {place.label}, s = {s}")
                bracket += math.log(q) / (1.0 - up)
            else:
                bracket += 0.5 * (digamma((s + 1.0) / 4.0) + digamma((s + 3.0) / 4.0))
        except (OverflowError, ZeroDivisionError):
            raise _not_finite("orbit constant", place, s) from None
        if not cmath.isfinite(bracket):
            raise _not_finite("orbit constant", place, s)
    return complex(c0 + r * bracket)


def kernel_normalization(n: LevelIdeal, s_places: Iterable[Place]) -> float:
    """(-1)**|S| [K : K0(n)]**(-1).

    A place listed twice in S raises `ValueError`.  S must avoid the level
    support; `RamifiedOverlapError` otherwise, as `rtflab constants` reports.
    """
    s_list = list(s_places)
    for i, place in enumerate(s_list):
        if place in s_list[:i]:
            raise ValueError(f"S lists {place.label} twice")
    finite = {p for p in s_list if isinstance(p, FinitePlace)}
    if finite & set(n.support()):
        raise RamifiedOverlapError("S must be disjoint from the support of the level")
    return (-1.0) ** len(s_list) / float(index_k0(n))


def predicted_moment_average(
    n: LevelIdeal,
    test_functions,
    eta: DirichletCharacter,
    tol: float = 1e-10,
):
    """Right-hand side of the moment asymptotic over Q: the level constant
    times 4 L(1, eta) times `measures.spectral_pairing`.

    L(1, eta) is `laurent_at_1(eta).c0 / sqrt(m)`, for a real even primitive
    eta (`ValueError` otherwise); the trivial character raises `PoleError`.
    """
    from .quadrature import QuadratureResult
    from .measures import spectral_pairing

    laurent = laurent_at_1(eta)
    if laurent.residue:
        raise PoleError("L(s, eta) has a pole at s = 1 for the trivial character")
    pairing = spectral_pairing(test_functions, eta, tol)
    c = level_constant(n) * 4.0 * laurent.c0 / math.sqrt(eta.modulus)
    return QuadratureResult(c * pairing.value, abs(c) * pairing.error_estimate, pairing.subdivisions)
