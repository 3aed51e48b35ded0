"""Spectral measures on the unitary domains and their quadrature.

The semicircle density, the per-prime level-aspect densities against both
signs, and the per-place spectral densities (archimedean and finite) live
here, together with the change-of-variables machinery that identifies the
finite-place density with the per-prime density under x = 2 cos(y log(q)/2).
The half-angle in that map is essential: with it, the window
[0, 2 pi / log q] maps once onto [-2, 2] and the transported density matches
pointwise (total mass one); dropping the halving, as if the full window were
an angle sweep, scales the Jacobian by exactly two, which is the negative
control exposed below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import DomainError
from .fields import ArchimedeanPlace, FieldProfile, FinitePlace, Place, RATIONALS
from .local_factors import _local_l_from_power, local_l_arch_spherical, local_l_character
from .quadrature import (
    QuadratureResult,
    integrate,
    integrate_with_cos_substitution,
)
from .special import abs_gamma_iy_sq_inv

_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class Density:
    """A nonnegative density on a real interval."""

    lo: float
    hi: float
    fn: Callable[[float], float]
    tag: str
    cos_substitution: bool = False  # sqrt(4 - x^2)-type endpoints on [-2, 2]

    def __call__(self, x: float) -> float:
        if not (self.lo - _EDGE_TOL <= x <= self.hi + _EDGE_TOL):
            raise DomainError(f"{self.tag}: {x} outside [{self.lo}, {self.hi}]")
        return self.fn(min(max(x, self.lo), self.hi))

    def mass(self, tol: float = 1e-10) -> QuadratureResult:
        if not math.isfinite(self.hi - self.lo):
            raise DomainError(
                f"{self.tag} lives on an unbounded window; pair it against a "
                "compactly supported function instead of asking for its mass"
            )
        return integrate_density(self, self.lo, self.hi, tol)


def integrate_density(density: Density, a: float, b: float, tol: float = 1e-10) -> QuadratureResult:
    """Integrate a density over [a, b] within its domain.

    Endpoint square-root singularities of semicircle-type densities are
    handled by the x = 2 cos(theta) substitution.
    """
    if a < density.lo - _EDGE_TOL or b > density.hi + _EDGE_TOL:
        raise DomainError(f"[{a}, {b}] is not inside the domain of {density.tag}")
    a, b = max(a, density.lo), min(b, density.hi)
    if density.cos_substitution:
        return integrate_with_cos_substitution(density.fn, a, b, tol)
    return integrate(density.fn, a, b, tol)


# ---------------------------------------------------------------------------
# semicircle and per-prime densities


def sato_tate_density(x: float) -> float:
    """Semicircle density (2 pi)**(-1) sqrt(4 - x**2) on [-2, 2]."""
    if not (-2.0 - _EDGE_TOL <= x <= 2.0 + _EDGE_TOL):
        raise DomainError(f"{x} outside [-2, 2]")
    return math.sqrt(max(4.0 - x * x, 0.0)) / (2.0 * math.pi)


def _plancherel_fn(q: int, sign: int) -> Callable[[float], float]:
    """The per-prime density at (q, sign) as a function of x; checks q and sign once."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if q < 2:
        raise ValueError("q must be a prime (power) >= 2")
    a = math.sqrt(q) + 1.0 / math.sqrt(q)
    if sign == 1:
        num = q - 1.0

        def fn(x: float) -> float:
            base = sato_tate_density(x)
            return num / (a - x) ** 2 * base

    else:
        num, a_sq = q + 1.0, a * a

        def fn(x: float) -> float:
            base = sato_tate_density(x)
            return num / (a_sq - x * x) * base

    return fn


def plancherel_density(x: float, q: int, sign: int) -> float:
    """Level-aspect limiting density of normalized eigenvalues at a prime.

    Two cases according to the sign of the twisting character at q; both are
    probability densities against the semicircle on [-2, 2].
    """
    return _plancherel_fn(q, sign)(x)


def sato_tate(tag: str = "mu_ST") -> Density:
    return Density(-2.0, 2.0, sato_tate_density, tag, cos_substitution=True)


def plancherel(q: int, sign: int) -> Density:
    tag = f"mu_{q}^{'+' if sign == 1 else '-'}"
    return Density(-2.0, 2.0, _plancherel_fn(q, sign), tag, cos_substitution=True)


def plancherel_mass_closed_form(q: int, sign: int) -> float:
    """Total mass by the Poisson-kernel antiderivative; equals 1 for both signs.

    (2 pi)**(-1) \\int sqrt(4-x^2)/(A-x) dx = (A - sqrt(A^2-4))/2 over [-2, 2],
    and A = q**(1/2) + q**(-1/2) gives sqrt(A^2-4) = q**(1/2) - q**(-1/2); the
    plus case follows by differentiating in A, the minus case by partial
    fractions.
    """
    root_q = math.sqrt(q)
    a = root_q + 1.0 / root_q
    s = root_q - 1.0 / root_q  # sqrt(A^2 - 4)
    if sign == 1:
        poisson_da = (a - s) / (2.0 * s)  # (2pi)^-1 int sqrt/(A-x)^2
        return (q - 1.0) * poisson_da
    poisson = (a - s) / 2.0  # (2pi)^-1 int sqrt/(A-x) = q**(-1/2)
    return (q + 1.0) / (2.0 * a) * 2.0 * poisson


# ---------------------------------------------------------------------------
# per-place spectral densities


def _finite_spectral_fn(q: int, sign: int) -> Callable[[float], float]:
    """The finite-place formula at (q, sign) as a function of y.

    log q and the local value at 1 of the sign character are computed once.
    The spherical factor and its sign twin are evaluated at the same two
    exponents s = 1/2 +- iy/2, so each power q**(-s) is computed once per
    point and fed to both; every step is the one `local_l_spherical` and
    `local_l_spherical_sign` take, so the value is the same float.
    """
    log_q = math.log(q)
    l_one_sign = local_l_character(1.0, complex(sign), q)
    four_pi = 4.0 * math.pi
    half = complex(0.5)
    one, chi = 1.0 + 0.0j, complex(sign)

    def fn(y: float) -> float:
        nu = 1j * y
        s_plus, s_minus = half + nu / 2.0, half - nu / 2.0
        p_plus, p_minus = q ** (-s_plus), q ** (-s_minus)
        spherical = _local_l_from_power(s_plus, one, p_plus) * _local_l_from_power(
            s_minus, one, p_minus
        )
        twisted = _local_l_from_power(s_plus, chi, p_plus) * _local_l_from_power(
            s_minus, chi, p_minus
        )
        num = (spherical * twisted / l_one_sign).real
        kernel = 2.0 - 2.0 * math.cos(y * log_q)  # |1 - q^{-iy}|^2
        return num * log_q / four_pi * kernel

    return fn


def finite_spectral_formula(y: float, q: int, sign: int) -> float:
    """The finite-place spectral density formula on all of R.

    As a function of y it is even and periodic with period 4 pi / log q; the
    window [0, 2 pi / log q] is a fundamental domain for those symmetries.
    """
    return _finite_spectral_fn(q, sign)(y)


def _local_spectral_fn(place: Place | None, sign: int) -> Callable[[float], float]:
    """The per-place spectral density as a function of y; checks sign once."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if place is None or isinstance(place, ArchimedeanPlace):

        def arch(y: float) -> float:
            if y < -_EDGE_TOL:
                raise DomainError("archimedean spectral variable must be >= 0")
            y = max(y, 0.0)
            if y == 0.0:
                return 0.0
            central = local_l_arch_spherical(0.5, 1j * y)
            num = (central * central).real  # sign character is trivial at infinity
            return num * abs_gamma_iy_sq_inv(y) / (4.0 * math.pi)

        return arch
    window = 2.0 * math.pi / math.log(place.q)
    formula = _finite_spectral_fn(place.q, sign)

    def finite(y: float) -> float:
        if not (-_EDGE_TOL <= y <= window + _EDGE_TOL):
            raise DomainError(f"finite-place spectral variable {y} outside [0, {window}]")
        return formula(min(max(y, 0.0), window))

    return finite


def local_spectral_density(y: float, place: Place | None, sign: int = 1) -> float:
    """Density of the per-place spectral measure at the point i*y.

    Archimedean places (place=None or ArchimedeanPlace) use the gamma-kernel
    weight (1/(4 pi)) |Gamma(iy/2)|**(-2); finite places use
    (log q / (4 pi)) |1 - q**(-iy)|**2.  The numerator is the product of the
    two central local factors divided by the local value at 1 of the sign
    character.  Supported on the imaginary axis; y must lie in the window.
    """
    return _local_spectral_fn(place, sign)(y)


def spectral_density_at_point(point, sign: int = 1) -> float:
    """Density at a spectral point, zero off the unitary axis.

    The measure is supported on the imaginary axis; points on the
    complementary-series branches (positive real part) belong to the domain
    but carry no mass.
    """
    from .local_factors import SpectralPoint

    if not isinstance(point, SpectralPoint):
        raise TypeError("expected a SpectralPoint")
    if not point.in_domain():
        raise DomainError(f"{point.value} is outside the spectral domain")
    reduced = point.reduced()
    if abs(reduced.value.real) > 1e-12:
        return 0.0
    return local_spectral_density(reduced.value.imag, point.place, sign)


def local_spectral(place: Place | None, sign: int = 1) -> Density:
    fn = _local_spectral_fn(place, sign)
    if place is None or isinstance(place, ArchimedeanPlace):
        return Density(0.0, math.inf, fn, "lambda_inf")
    window = 2.0 * math.pi / math.log(place.q)
    return Density(0.0, window, fn, f"lambda_{place.q}^{'+' if sign == 1 else '-'}")


# ---------------------------------------------------------------------------
# change of variables onto [-2, 2]


def satake_x_of_y(y: float, q: int) -> float:
    return 2.0 * math.cos(0.5 * y * math.log(q))


def dx_dy_abs(y: float, q: int) -> float:
    x = satake_x_of_y(y, q)
    return math.log(q) * math.sqrt(max(4.0 - x * x, 0.0)) / 2.0


def pushforward_check(place: FinitePlace, sign: int, grid_size: int = 1000) -> float:
    """Max pointwise defect of the change-of-variables identity on the half window.

    On y in (0, pi/log q) the finite-place spectral density equals the
    per-prime density transported by x = 2 cos(y log(q)/2).
    """
    q = place.q
    half = math.pi / math.log(q)
    worst = 0.0
    for i in range(1, grid_size + 1):
        y = half * i / (grid_size + 1)
        lhs = local_spectral_density(y, place, sign)
        x = satake_x_of_y(y, q)
        rhs = plancherel_density(x, q, sign) * dx_dy_abs(y, q)
        worst = max(worst, abs(lhs - rhs))
    return worst


def pushforward_fullwindow_factor(
    place: FinitePlace, sign: int, grid_size: int = 1000
) -> tuple[float, float]:
    """(min, max) of the unhalved-convention defect ratio over the full window.

    Treating the window [0, 2 pi / log q] as a full angle sweep (no halving in
    x = 2 cos(y log q / 2)) doubles the Jacobian: the transported density
    mu(x) * log(q) * sqrt(4 - x**2) overshoots the spectral density by exactly
    the factor 2, uniformly in y and for both signs.
    """
    q = place.q
    full = 2.0 * math.pi / math.log(q)
    lo, hi = math.inf, -math.inf
    for i in range(1, grid_size + 1):
        y = full * i / (grid_size + 1)
        x = satake_x_of_y(y, q)
        unhalved = plancherel_density(x, q, sign) * math.log(q) * math.sqrt(
            max(4.0 - x * x, 0.0)
        )
        ratio = unhalved / local_spectral_density(y, place, sign)
        lo, hi = min(lo, ratio), max(hi, ratio)
    return lo, hi


def lambda_mass(
    place: FinitePlace, sign: int, tol: float = 1e-10, window: str = "half"
) -> QuadratureResult:
    """Mass of the finite-place spectral density over the half or full window."""
    q = place.q
    half = math.pi / math.log(q)
    hi = half if window == "half" else 2.0 * half
    return integrate(lambda y: local_spectral_density(y, place, sign), 0.0, hi, tol)


# ---------------------------------------------------------------------------
# the product pairing


def spectral_pairing(
    test_functions: Mapping[Place, tuple[Callable[[float], float], tuple[float, float]]],
    eta_sign_at: Callable[[FinitePlace], int],
    l_one_eta: float,
    profile: FieldProfile = RATIONALS,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Pairing of a product test function against the product spectral measure.

    ``test_functions`` maps each place of S to (function, support interval);
    supports must be compact and inside the per-place window.  The result is
    4 * D**(3/2) * L(1, eta) times the product of the per-place integrals,
    with first-order error propagation through the product.
    """
    d_f = profile.discriminant_abs
    values: list[float] = []
    errors: list[float] = []
    subdivisions = 0
    for place in sorted(
        test_functions, key=lambda p: (isinstance(p, FinitePlace), str(p.label))
    ):
        fn, (a, b) = test_functions[place]
        if isinstance(place, FinitePlace):
            window = 2.0 * math.pi / math.log(place.q)
            if not (0.0 - _EDGE_TOL <= a <= b <= window + _EDGE_TOL):
                raise DomainError(f"support [{a}, {b}] outside the window at {place.label}")
            sign = eta_sign_at(place)
            res = integrate(
                lambda y: fn(y) * local_spectral_density(y, place, sign), a, b, tol
            )
        else:
            if a < -_EDGE_TOL or b == math.inf:
                raise DomainError("archimedean support must be compact in [0, inf)")
            res = integrate(
                lambda y: fn(y) * local_spectral_density(y, place, 1), a, b, tol
            )
        values.append(res.value)
        errors.append(res.error_estimate)
        subdivisions += res.subdivisions
    prefactor = 4.0 * d_f**1.5 * l_one_eta
    product = math.prod(values)
    err = 0.0
    for i, e in enumerate(errors):
        partial = math.prod(abs(v) for j, v in enumerate(values) if j != i)
        err += e * partial
    return QuadratureResult(prefactor * product, abs(prefactor) * err, subdivisions)
