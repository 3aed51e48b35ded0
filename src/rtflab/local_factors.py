"""Local representations of GL(2) with trivial central character.

Three local shapes occur at a finite place: spherical (a Satake parameter in
the unitary set), special (conductor exponent one, carrying the sign of its
twisting unramified character), and anything of conductor exponent two or
more, for which only the exponent matters here.  The module evaluates the
standard local L-factors, the explicit period constants of the normalized
local vectors, and the nonnegative spectral weights they aggregate into.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._record import record
from .errors import PoleError
from .fields import FinitePlace, LevelIdeal, index_k0
from .special import gamma_r

if TYPE_CHECKING:
    from .characters import QuadraticCharacterProfile

_UNITARY_TOL = 1e-12


@record
class Spherical:
    """Unramified principal series, classified by a Satake parameter alpha."""

    satake: complex

    conductor_exponent = 0


@record
class Special:
    """Twist of the Steinberg representation by an unramified quadratic sign."""

    sign: int

    conductor_exponent = 1

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("special representation sign must be +1 or -1")


@record
class HigherConductor:
    """A local representation of conductor exponent >= 2."""

    c: int

    def __post_init__(self) -> None:
        if self.c < 2:
            raise ValueError("higher-conductor shape requires c >= 2")

    @property
    def conductor_exponent(self) -> int:
        return self.c


LocalData = Spherical | Special | HigherConductor


@record
class LocalRepresentation:
    place: FinitePlace
    data: LocalData

    @property
    def conductor_exponent(self) -> int:
        return self.data.conductor_exponent


def spherical_in_open_set(data: Spherical, q: int) -> bool:
    """Membership of the Satake parameter in the open admissible set for q."""
    a = complex(data.satake)
    if abs(abs(a) - 1.0) <= _UNITARY_TOL:
        return True
    if abs(a.imag) < 1e-14 and a.real > 0.0:
        x = a.real if a.real >= 1.0 else 1.0 / a.real
        return 1.0 < x < math.sqrt(q)  # q**(sigma/2) with sigma in (0, 1)
    return False


# ---------------------------------------------------------------------------
# local L-factors


def local_l_character(s: complex, chi_at_uniformizer: complex | None, q: int) -> complex:
    """Abelian local factor (1 - chi(pi) q**(-s))**(-1); 1 when chi is ramified.

    ``chi_at_uniformizer=None`` encodes a ramified character (factor 1 by the
    standard convention).  Evaluation at the pole raises instead of returning
    infinity.
    """
    if chi_at_uniformizer is None:
        return 1.0 + 0.0j
    return _local_l_from_power(s, chi_at_uniformizer, q ** (-complex(s)))


def _local_l_from_power(s: complex, chi_at_uniformizer: complex, power: complex) -> complex:
    """(1 - chi(pi) * power)**(-1) for power = q**(-s), given by the caller.

    Callers that evaluate several factors at one exponent share its power
    this way; ``s`` only names the point in the pole message.
    """
    t = chi_at_uniformizer * power
    if abs(1.0 - t) < 1e-14:
        raise PoleError(f"abelian local factor pole at s = {s}")
    return 1.0 / (1.0 - t)


def local_l_spherical(s: complex, nu: complex, q: int) -> complex:
    """Local factor of the spherical principal series with parameter nu."""
    s, nu = complex(s), complex(nu)
    return local_l_character(s + nu / 2.0, 1.0 + 0.0j, q) * local_l_character(
        s - nu / 2.0, 1.0 + 0.0j, q
    )


def local_l_spherical_sign(s: complex, nu: complex, q: int, sign: int) -> complex:
    """Spherical local factor twisted by an unramified quadratic sign."""
    s, nu = complex(s), complex(nu)
    return local_l_character(s + nu / 2.0, complex(sign), q) * local_l_character(
        s - nu / 2.0, complex(sign), q
    )


def local_l_arch_spherical(s: complex, nu: complex) -> complex:
    """Archimedean spherical factor gamma_r(s + nu/2) gamma_r(s - nu/2)."""
    return gamma_r(complex(s) + complex(nu) / 2.0) * gamma_r(complex(s) - complex(nu) / 2.0)


# ---------------------------------------------------------------------------
# period constants of the normalized local vectors


def satake_ratio(data: Spherical, q: int) -> float:
    """(alpha + 1/alpha) / (q**(1/2) + q**(-1/2)); real on the admissible set.

    ValueError exactly when `spherical_in_open_set` rejects the parameter.
    """
    if not spherical_in_open_set(data, q):
        raise ValueError("Satake parameter is not in the admissible set")
    a = complex(data.satake)
    return (a + 1.0 / a).real / (math.sqrt(q) + 1.0 / math.sqrt(q))


def period_constant(rep: LocalRepresentation, eta_sign: int, k: int) -> complex:
    """Value of the local toral period of the depth-k vector against a sign.

    Case table indexed by the conductor exponent of the representation; every
    variant gives 1 at k = 0.
    """
    if eta_sign not in (1, -1):
        raise ValueError("eta_sign must be +1 or -1")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1.0 + 0.0j
    q = rep.place.q
    data = rep.data
    if isinstance(data, Spherical):
        a = complex(data.satake)
        if k == 1:
            return eta_sign - (a + 1.0 / a) / (math.sqrt(q) + 1.0 / math.sqrt(q))
        return (
            (1.0 / q)
            * eta_sign ** (k - 2)
            * (a * math.sqrt(q) * eta_sign - 1.0)
            * (math.sqrt(q) * eta_sign / a - 1.0)
        )
    if isinstance(data, Special):
        return eta_sign ** (k - 1) * (eta_sign - data.sign / q)
    return complex(eta_sign**k)


# ---------------------------------------------------------------------------
# spectral weights


def r_weight(rep: LocalRepresentation, eta_sign: int, k: int) -> float:
    """Nonnegative aggregate weight of the depth-k oldvector family.

    Extended by r(., ., 0) = 1 so that global weights are clean products over
    the full support of the level-to-conductor quotient.
    """
    if eta_sign not in (1, -1):
        raise ValueError("eta_sign must be +1 or -1")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1.0
    q = rep.place.q
    data = rep.data
    parity = 0.5 * (1.0 + (-1.0) ** k)
    if isinstance(data, HigherConductor):
        return float(k + 1) if eta_sign == 1 else parity
    if isinstance(data, Special):
        if eta_sign == 1:
            t = data.sign / q
            return 1.0 + (1.0 - t) / (1.0 + t) * k
        return parity
    ratio = satake_ratio(data, q)
    if eta_sign == 1:
        return 2.0 / (1.0 + ratio) + (1.0 - ratio) / (1.0 + ratio) * (q + 1.0) / (
            q - 1.0
        ) * (k - 1)
    return (q + 1.0) / (q - 1.0) * parity


def global_weight(
    reps: dict[FinitePlace, LocalRepresentation],
    eta: QuadraticCharacterProfile,
    n: LevelIdeal,
    conductor: LevelIdeal,
) -> float:
    """Product of r-weights over the support of n / conductor.

    ``reps`` must cover every place of that support; the conductor must
    divide the level and the level must avoid the ramification of eta.
    """
    quotient = n.quotient(conductor)
    out = 1.0
    for place, k in quotient.factors:
        if place not in reps:
            raise KeyError(f"no local representation supplied at {place.label}")
        rep = reps[place]
        if rep.conductor_exponent != conductor.ord_at(place):
            raise ValueError(
                f"local conductor exponent at {place.label} disagrees with the conductor ideal"
            )
        out *= r_weight(rep, eta.sign_at(place), k)
    return out


def adjoint_norm_factor(conductor: LevelIdeal, l_ad_partial: float) -> float:
    """Norm-square of the new vector: 2 N(f) [K : K0(f)]**(-1) L(1, Ad) with the
    partial adjoint value supplied externally (must be positive)."""
    if not l_ad_partial > 0.0:
        raise ValueError("the partial adjoint L-value must be positive")
    return 2.0 * conductor.norm() / float(index_k0(conductor)) * l_ad_partial

