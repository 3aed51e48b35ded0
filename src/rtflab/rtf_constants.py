"""Explicit constants of the moment identity: level constants, edge Laurent
data, the residual/Eisenstein constant family, and the orbit-side kernels.

The per-place building blocks come in two families.  The *edge place factors*
(functions of the continuous parameter, expanded at the edge point -1)
assemble into the Taylor data of a product over the support of a choice
assignment.  The *residue place factors* (functions of a twisting variable z,
expanded at 0) assemble into the constants of the residual spectrum
contribution.  Each factor's jet (f, f', f''/2) is read off its formula by
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

from ._record import record
from .characters import (
    DirichletCharacter,
    QuadraticCharacterProfile,
    adelic_gauss_sum,
)
from .errors import DomainError, PoleError, RamifiedOverlapError
from .fields import (
    FieldProfile,
    FinitePlace,
    LevelIdeal,
    Place,
    RATIONALS,
    index_k0,
)
from .lfunctions import (
    EdgeCoefficients,
    Jet,
    LaurentData,
    edge_coefficients,
    epsilon_of_minus_z,
    exp_jet,
    jet_product,
    jet_reciprocal,
    l_fin,
    laurent_at_1,
    zeta_ratio,
)
from .special import EULER_GAMMA, digamma, gamma, log_gamma

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


def mean_square_constant(
    n: LevelIdeal, laurent: LaurentData, profile: FieldProfile = RATIONALS
) -> float:
    """Constant term of the second-moment asymptotic at level n.

    c0 + residue * { (d/2)(gamma + 2 log 2 - log pi) + log(D * N(n)**(1/2)) },
    built from the Laurent data of the completed L-function of the character.
    """
    d_f = profile.degree
    bracket = 0.5 * d_f * (EULER_GAMMA + 2.0 * math.log(2.0) - math.log(math.pi))
    bracket += math.log(profile.discriminant_abs) + 0.5 * n.log_norm()
    return laurent.c0 + laurent.residue * bracket


# ---------------------------------------------------------------------------
# choice assignments over the level support


@record
class RhoAssignment:
    """A choice of depth 0..e_v at every place of a base ideal."""

    base: LevelIdeal
    choices: tuple[tuple[FinitePlace, int], ...]

    def __post_init__(self) -> None:
        for place, j in self.choices:
            e = self.base.ord_at(place)
            if not 0 <= j <= e:
                raise ValueError(f"choice {j} at {place.label} outside 0..{e}")

    def active(self) -> tuple[tuple[FinitePlace, int], ...]:
        """Places with a positive choice, paired with that choice."""
        return tuple((p, j) for p, j in self.choices if j >= 1)

    def is_empty(self) -> bool:
        return not self.active()


def _section_factor(q: int, k: int, s: int) -> float:
    """Per-place factor of the flat section at depth k >= 1."""
    if k == 1:
        return s * math.sqrt(q)
    return (1.0 - 1.0 / q) * s**k * math.sqrt((q + 1.0) / (q - 1.0)) * q ** (k / 2.0)


# ---------------------------------------------------------------------------
# sums over choice assignments


def assignment_sum(
    n: LevelIdeal,
    section_sign: Callable[[FinitePlace], int],
    jet_at: Callable[[FinitePlace, int], Jet],
) -> Jet:
    """Sum over every choice assignment rho of n of (section(rho) + [rho empty])
    times the jet product of jet_at(place, k) over the active places of rho.

    Both factors are products over places, so the sum over the prod(e_v + 1)
    assignments equals the empty-assignment term plus the product over places
    of the local sums 1 + sum_k section_v(k) jet_v(k): O(sum e_v) work.
    """
    local = []
    for place, e in n.factors:
        s = section_sign(place)
        acc = (1.0, 0.0, 0.0)
        for k in range(1, e + 1):
            w = _section_factor(place.q, k, s)
            acc = tuple(a + w * b for a, b in zip(acc, jet_at(place, k)))
        local.append(acc)
    p0, p1, p2 = jet_product(local)
    return 1.0 + p0, p1, p2


# ---------------------------------------------------------------------------
# edge place factors and their jets


@record
class EdgePlaceBlock:
    """Per-place data (q, depth k, sign) of an edge factor."""

    q: int
    k: int
    sign: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("depth must be >= 1")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def leading(self) -> float:
        """1 at depth one, ((q+1)/(q-1))**(1/2) at depth two or more."""
        if self.k == 1:
            return 1.0
        return math.sqrt((self.q + 1.0) / (self.q - 1.0))


def edge_place_factor(nu: complex, block: EdgePlaceBlock) -> complex:
    """C {q + 1 + sign (q**((1+nu)/2) + q**((1-nu)/2))} q**(k nu / 2) / (q - q**nu)."""
    q, k, s = block.q, block.k, block.sign
    nu = complex(nu)
    qnu = q**nu
    if abs(q - qnu) < 1e-13 * q:
        raise PoleError(f"edge factor pole at nu = {nu}")
    bracket = q + 1.0 + s * (q ** ((1.0 + nu) / 2.0) + q ** ((1.0 - nu) / 2.0))
    return block.leading * bracket * q ** (k * nu / 2.0) / (q - qnu)


def edge_place_jet(block: EdgePlaceBlock) -> Jet:
    """Jet (f, f', f''/2) at nu = -1 of :func:`edge_place_factor`, read off its
    formula term by term.  The bracket's powers are taken in h = 1 + nu,
    q**((1+nu)/2) = e**(h log q / 2) and q**((1-nu)/2) = q e**(-h log q / 2),
    so their values are exactly 1 and q and the value is exactly 0 for sign -1.
    """
    q, k, s = block.q, block.k, block.sign
    lq = math.log(q)
    bracket = tuple(
        c + s * (u + q * d)
        for c, u, d in zip((q + 1.0, 0.0, 0.0), exp_jet(lq / 2.0, 0.0), exp_jet(-lq / 2.0, 0.0))
    )
    den = tuple(c - x for c, x in zip((float(q), 0.0, 0.0), exp_jet(lq, -1.0)))
    jet = jet_product([bracket, exp_jet(k * lq / 2.0, -1.0), jet_reciprocal(den)])
    return tuple(block.leading * c for c in jet)


def eta_on_different(
    eta: QuadraticCharacterProfile, profile: FieldProfile
) -> int:
    """Sign of the character on the different ideal (1 over Q, where all
    different exponents vanish)."""
    out = 1
    for place in profile.finite_places:
        if place.d > 0:
            out *= eta.sign_at(place) ** place.d
    return out


# ---------------------------------------------------------------------------
# residue place factors and their jets


def residue_place_factor(z: complex, block: EdgePlaceBlock) -> complex:
    """The per-place factor of the residual constant as a function of z."""
    q, k = block.q, block.k
    z = complex(z)
    if k == 1:
        return (q**z - 1.0) * q**-0.5 / (1.0 - 1.0 / q)
    poly = (
        q ** (k * z)
        - q ** ((k - 1) * z) / q
        - q ** ((k - 1) * z)
        + q ** ((k - 2) * z) / q
    )
    return poly * block.leading * q ** (-k / 2.0) / (1.0 - q**-2)


def residue_place_jet(block: EdgePlaceBlock) -> Jet:
    """Jet (f, f', f''/2) at z = 0 of :func:`residue_place_factor`: the same
    sum of q**(j z) terms, each term an :func:`exp_jet`."""
    q, k = block.q, block.k
    if k == 1:
        terms = ((1.0, 1), (-1.0, 0))
        scale = q**-0.5 / (1.0 - 1.0 / q)
    else:
        terms = ((1.0, k), (-1.0 / q, k - 1), (-1.0, k - 1), (1.0 / q, k - 2))
        scale = block.leading * q ** (-k / 2.0) / (1.0 - q**-2)
    jet = (0.0, 0.0, 0.0)
    for c, j in terms:
        jet = tuple(a + c * b for a, b in zip(jet, exp_jet(j * math.log(q), 0.0)))
    return tuple(scale * a for a in jet)


def _discriminant_jet(profile: FieldProfile) -> Jet:
    """D**(-z) at z = 0."""
    return exp_jet(-math.log(profile.discriminant_abs), 0.0)


# ---------------------------------------------------------------------------
# character context bundling the analytic inputs


@record
class EtaContext:
    """Analytic data of a sign character over Q, gathered once.

    Bundles the quadratic profile (whose ``dirichlet`` is the concrete
    character, ``DirichletCharacter.trivial()`` for the trivial one), the
    normalized Gauss sum, Laurent data at 1 for both the character and the
    trivial character, and the edge coefficients of the central-value series.
    """

    profile: FieldProfile
    eta: QuadraticCharacterProfile
    gauss_adelic: complex
    laurent_trivial: LaurentData
    laurent_eta: LaurentData
    edge: EdgeCoefficients
    zeta2: float

    @property
    def is_trivial(self) -> bool:
        return self.eta.dirichlet.order() == 1

    @property
    def residue(self) -> float:
        return self.laurent_trivial.residue


def eta_context(chi: DirichletCharacter, profile: FieldProfile = RATIONALS) -> EtaContext:
    """Build the full analytic context for the trivial or an even primitive
    quadratic character (`ValueError` otherwise, from the profile); every
    character of order one gives the trivial one's."""
    if not profile.is_rationals:
        raise ValueError("the analytic context is implemented over Q only")
    if chi.order() == 1:
        chi = DirichletCharacter.trivial()
    return EtaContext(
        profile=profile,
        eta=QuadraticCharacterProfile.from_dirichlet(chi, profile),
        gauss_adelic=adelic_gauss_sum(chi),
        laurent_trivial=laurent_at_1(DirichletCharacter.trivial()),
        laurent_eta=laurent_at_1(chi),
        edge=edge_coefficients(chi, profile.discriminant_abs),
        # Lambda_zeta(2) = pi/6 rounded from 30 digits; math.pi / 6 is 1 ulp lower.
        zeta2=0.5235987755982989,
    )


# ---------------------------------------------------------------------------
# the residual term constant


def _value_factor(q: int, k: int, s: int) -> float:
    """Per-place factor of the residue value at (1/2, 1), depth k >= 1."""
    if k == 1:
        return (s - 1.0) * q**-0.5 / (1.0 - 1.0 / q)
    return (
        s**k
        * (s - 1.0)
        * (s - 1.0 / q)
        / (1.0 - q**-2)
        * math.sqrt((q + 1.0) / (q - 1.0))
        * q ** (-k / 2.0)
    )


def _residual_combination(ctx: EtaContext, twisted_zero: complex, twisted_d2: float) -> float:
    """The residual term constant as a function of the twisted value and the
    twisted second derivative; it is linear in both."""
    r_f = ctx.residue
    if ctx.is_trivial:
        b0 = twisted_zero.real
        return (
            -0.5 * twisted_d2 * r_f * r_f
            - 2.0 * b0 * r_f * ctx.laurent_trivial.c1
            + b0 * ctx.laurent_trivial.c0**2
        )
    return (twisted_zero * ctx.laurent_eta.c0**2).real


# ---------------------------------------------------------------------------
# the spectral edge constants


def spectral_edge_constant(n: LevelIdeal, ctx: EtaContext, order: int) -> float:
    """The constant of the stated order (2, 1, 0 or -1) in the edge expansion
    of the residual-plus-degenerate spectral contribution at level n.

    Orders 2..0 weight the choice-assignment sums by the character's flat
    section and the edge Taylor data; order -1 uses the trivial section and
    the residual term constants.  Orders 2..0 enter the moment identity only
    for an everywhere-unramified character, but are defined for any context.
    Every sum over assignments is taken as a product over places
    (:func:`assignment_sum`); `oracles.edge_constants_by_enumeration`, one
    term per assignment, is the independent route.
    """
    if order not in (2, 1, 0, -1):
        raise ValueError("order must be one of 2, 1, 0, -1")
    d_half = ctx.profile.discriminant_abs**-0.5
    eta = ctx.eta
    if order == -1:
        value = assignment_sum(
            n, lambda p: 1, lambda p, k: (_value_factor(p.q, k, eta.sign_at(p)), 0.0, 0.0)
        )[0]
        residue = assignment_sum(
            n, lambda p: 1, lambda p, k: residue_place_jet(EdgePlaceBlock(p.q, k, 1))
        )
        twisted_d2 = 2.0 * jet_product([_discriminant_jet(ctx.profile), residue])[2]
        eps0 = epsilon_of_minus_z(0.0, ctx.eta.dirichlet)
        weight = ctx.gauss_adelic.real * d_half / ctx.zeta2
        return weight * _residual_combination(ctx, eps0 * value, twisted_d2)
    t0, t1, t2 = assignment_sum(
        n, eta.sign_at, lambda p, k: edge_place_jet(EdgePlaceBlock(p.q, k, eta.sign_at(p)))
    )
    e = ctx.edge
    if order == 2:
        combo = 0.5 * t0 * e.c_minus2
    elif order == 1:
        combo = e.c_minus1 * t0 + e.c_minus2 * t1
    else:
        combo = e.c_minus2 * t2 + e.c_minus1 * t1 + e.c_zero * t0
    return eta_on_different(eta, ctx.profile) * d_half * combo


# ---------------------------------------------------------------------------
# orbit-side kernels


def unipotent_orbit_factor(
    s_by_place: Mapping[Place, complex],
    eta_sign_at: Callable[[FinitePlace], int],
) -> complex:
    """Product over S of the orbit-side archimedean and finite factors.

    Archimedean: -(1/8) Gamma((s+1)/4)**2 / Gamma((s+3)/4)**2.  Finite:
    (1 - q**((s+1)/2))**(-1) (1 - sign * q**(-(s+1)/2))**(-1).
    """
    out = 1.0 + 0.0j
    for place in sorted(s_by_place, key=_place_sort_key):
        s = complex(s_by_place[place])
        try:
            if isinstance(place, FinitePlace):
                q = place.q
                up = q ** ((s + 1.0) / 2.0)
                if abs(1.0 - up) < 1e-13 or abs(1.0 - eta_sign_at(place) / up) < 1e-13:
                    raise PoleError(f"orbit factor pole at {place.label}, s = {s}")
                out /= (1.0 - up) * (1.0 - eta_sign_at(place) / up)
            else:
                a = (s + 1.0) / 4.0
                b = (s + 3.0) / 4.0
                if a.real > 0.0 and b.real > 0.0:
                    out *= -0.125 * cmath.exp(2.0 * (log_gamma(a) - log_gamma(b)))
                else:
                    ratio = gamma(a) / gamma(b)
                    out *= -0.125 * ratio * ratio
        except (OverflowError, ZeroDivisionError):
            raise _not_finite("orbit factor", place, s) from None
        if not cmath.isfinite(out):
            raise _not_finite("orbit factor", place, s)
    return out


def _not_finite(what: str, place: Place, s: complex) -> DomainError:
    """The error for a float overflow or a non-finite value at one place of S."""
    return DomainError(f"{what} at {place.label} is not finite in floats at s = {s}")


def _place_sort_key(place: Place):
    if isinstance(place, FinitePlace):
        return (1, place.q, place.label)
    return (0, 0, place.label)


def unipotent_orbit_constant(
    s_by_place: Mapping[Place, complex],
    a_ideal: LevelIdeal,
    laurent: LaurentData,
    profile: FieldProfile = RATIONALS,
) -> complex:
    """The additive orbit-side constant attached to an ideal and an s-tuple.

    For a character without residue (nontrivial) this collapses to the
    constant term c0 = L(1, eta), independent of the ideal and of s.  For the
    trivial character the residue multiplies a bracket with the log of
    D * N(a)**(1/2), digamma terms at the archimedean places and geometric
    series terms at the finite places.
    """
    c0, r = laurent.c0, laurent.residue
    if r == 0.0:
        return complex(c0)
    bracket: complex = math.log(profile.discriminant_abs) + 0.5 * a_ideal.log_norm()
    bracket += 0.5 * profile.degree * (EULER_GAMMA + 2.0 * math.log(2.0) - math.log(math.pi))
    for place in sorted(s_by_place, key=_place_sort_key):
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
    return c0 + r * bracket


def kernel_normalization(
    n: LevelIdeal, s_places: Iterable[Place], profile: FieldProfile = RATIONALS
) -> float:
    """(-1)**|S| D**(-1/2) [K : K0(n)]**(-1).

    S must avoid the level support; `RamifiedOverlapError` otherwise, the
    error `rtflab constants` reports for the same S.
    """
    s_list = list(s_places)
    finite = {p for p in s_list if isinstance(p, FinitePlace)}
    if finite & set(n.support()):
        raise RamifiedOverlapError("S must be disjoint from the support of the level")
    return (-1.0) ** len(s_list) * profile.discriminant_abs**-0.5 / float(index_k0(n))


def intertwining_ratio(chi: DirichletCharacter, rho: RhoAssignment, nu: complex) -> complex:
    """Constant-term ratio N(f)**(-nu) prod q**(-k nu) L(1+nu)/L(1-nu).

    The L-ratio is the global finite-part ratio for chi**2; the per-place
    powers run over the active places of the assignment.  Where chi**2 is
    principal the L-ratio is `zeta_ratio`, -1 at nu = 0 where the poles
    cancel; otherwise nu = 0 gives L(1, chi**2)/L(1, conj chi**2), 1 for a
    real chi**2.  Genuine zeros of the denominator are signaled.
    """
    nu = complex(nu)
    conductor = chi.primitive_character().modulus
    for place, _ in rho.active():
        if chi.phase_index(place.q) is None:
            raise RamifiedOverlapError(
                f"character is ramified at the active place {place.label}"
            )
    power = conductor ** (-nu)
    for place, k in rho.active():
        power *= place.q ** (-k * nu)
    chi_sq = chi.square().primitive_character()
    if chi_sq.order() == 1 and abs(nu) < 0.25:
        # Farther from the pole, rounding 1 +- nu in floats costs at most
        # 2**-52/|nu| relative, 4 ulps.
        return power * zeta_ratio(nu)
    num = l_fin(1.0 + nu, chi_sq)
    den = l_fin(1.0 - nu, chi_sq.conjugate())
    if abs(den) < 1e-280:
        raise PoleError(f"intertwining ratio pole at nu = {nu}")
    return power * num / den


def predicted_moment_average(
    n: LevelIdeal,
    test_functions,
    eta: QuadraticCharacterProfile,
    l_one_eta: float,
    profile: FieldProfile = RATIONALS,
    tol: float = 1e-10,
):
    """Right-hand side of the moment asymptotic: the level constant times the
    pairing of the test function against the product spectral measure."""
    from .quadrature import QuadratureResult
    from .measures import spectral_pairing

    pairing = spectral_pairing(test_functions, eta.sign_at, l_one_eta, profile, tol)
    c = level_constant(n)
    return QuadratureResult(c * pairing.value, abs(c) * pairing.error_estimate, pairing.subdivisions)
