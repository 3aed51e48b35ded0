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
from typing import Callable, Mapping

from ._record import record
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


@record
class Density:
    """A nonnegative density on a real interval.

    ``kernel`` is the density at points already in [lo, hi] and checks
    nothing.  Calling the Density (or its ``fn``) checks the domain once,
    clamps onto [lo, hi] and evaluates the kernel; quadrature, the CDF
    tables and `rtflab measure`, whose points lie inside by construction,
    call the kernel directly.
    """

    lo: float
    hi: float
    kernel: Callable[[float], float]
    tag: str
    cos_substitution: bool = False  # sqrt(4 - x^2)-type endpoints on [-2, 2]

    def __call__(self, x: float) -> float:
        if not (self.lo - _EDGE_TOL <= x <= self.hi + _EDGE_TOL):
            raise DomainError(f"{self.tag}: {x} outside [{self.lo}, {self.hi}]")
        return self.kernel(min(max(x, self.lo), self.hi))

    @property
    def fn(self) -> Callable[[float], float]:
        """The density with its domain check, the same as calling the Density."""
        return self.__call__

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
        return integrate_with_cos_substitution(density.kernel, a, b, tol)
    return integrate(density.kernel, a, b, tol)


# ---------------------------------------------------------------------------
# semicircle and per-prime densities


def _semicircle(x: float) -> float:
    return math.sqrt(max(4.0 - x * x, 0.0)) / (2.0 * math.pi)


def _plancherel_fn(q: int, sign: int) -> Callable[[float], float]:
    """The per-prime density at (q, sign) as a function of x in [-2, 2].

    Checks q and sign once; the domain is the caller's (see `Density`).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if q < 2:
        raise ValueError("q must be a prime (power) >= 2")
    a = math.sqrt(q) + 1.0 / math.sqrt(q)
    if sign == 1:
        num = q - 1.0

        def fn(x: float) -> float:
            base = _semicircle(x)
            return num / (a - x) ** 2 * base

    else:
        num, a_sq = q + 1.0, a * a

        def fn(x: float) -> float:
            base = _semicircle(x)
            return num / (a_sq - x * x) * base

    return fn


def sato_tate() -> Density:
    """The semicircle density (2 pi)**(-1) sqrt(4 - x**2) on [-2, 2]."""
    return Density(-2.0, 2.0, _semicircle, "mu_ST", cos_substitution=True)


def plancherel(q: int, sign: int) -> Density:
    """Level-aspect limiting density of normalized eigenvalues at a prime.

    Two cases according to the sign of the twisting character at q; both are
    probability densities against the semicircle on [-2, 2].
    """
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
    """The finite-place formula at (q, sign) as a function of y on all of R.

    As a function of y it is even and periodic with period 4 pi / log q; the
    window [0, 2 pi / log q] is a fundamental domain for those symmetries.
    log q and the local value at 1 of the sign character are computed once.
    The spherical factor and its sign twin are evaluated at the same two
    exponents s = 1/2 +- iy/2, so the powers q**(-s) are computed once per
    point and fed to both.  The power at 1/2 - iy/2 is taken as the
    conjugate of the one at 1/2 + iy/2: complex pow on a positive real base
    returns len * (cos phi, sin phi) with phi = b.imag * log q, and cos is
    even and sin odd, so the conjugate equals the power it replaces (at y = 0
    up to the sign of its zero imaginary part).  Every other step
    is the one `local_l_spherical` and `local_l_spherical_sign` take, so the
    value is the same float.
    """
    log_q = math.log(q)
    l_one_sign = local_l_character(1.0, complex(sign), q)
    four_pi = 4.0 * math.pi
    half = complex(0.5)
    one, chi = 1.0 + 0.0j, complex(sign)

    def fn(y: float) -> float:
        nu = 1j * y
        s_plus, s_minus = half + nu / 2.0, half - nu / 2.0
        p_plus = q ** (-s_plus)
        p_minus = p_plus.conjugate()
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


def local_spectral(place: Place | None, sign: int = 1) -> Density:
    """The per-place spectral density in y on its window; checks sign once.

    Archimedean places (place=None or ArchimedeanPlace) use the gamma-kernel
    weight (1/(4 pi)) |Gamma(iy/2)|**(-2); finite places use
    (log q / (4 pi)) |1 - q**(-iy)|**2.  The numerator is the product of the
    two central local factors divided by the local value at 1 of the sign
    character.  At a finite place the ``kernel`` is the formula on all of R.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if place is None or isinstance(place, ArchimedeanPlace):

        def arch(y: float) -> float:
            if y == 0.0:
                return 0.0
            central = local_l_arch_spherical(0.5, 1j * y)
            num = (central * central).real  # sign character is trivial at infinity
            return num * abs_gamma_iy_sq_inv(y) / (4.0 * math.pi)

        return Density(0.0, math.inf, arch, "lambda_inf")
    window = 2.0 * math.pi / math.log(place.q)
    tag = f"lambda_{place.q}^{'+' if sign == 1 else '-'}"
    return Density(0.0, window, _finite_spectral_fn(place.q, sign), tag)


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
    density, mu = local_spectral(place, sign), plancherel(q, sign)
    worst = 0.0
    for i in range(1, grid_size + 1):
        y = half * i / (grid_size + 1)
        lhs = density(y)
        x = satake_x_of_y(y, q)
        rhs = mu(x) * dx_dy_abs(y, q)
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
    density, mu = local_spectral(place, sign), plancherel(q, sign)
    lo, hi = math.inf, -math.inf
    for i in range(1, grid_size + 1):
        y = full * i / (grid_size + 1)
        x = satake_x_of_y(y, q)
        unhalved = mu(x) * math.log(q) * math.sqrt(max(4.0 - x * x, 0.0))
        ratio = unhalved / density(y)
        lo, hi = min(lo, ratio), max(hi, ratio)
    return lo, hi


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
            density = local_spectral(place, eta_sign_at(place))
            res = integrate(lambda y: fn(y) * density(y), a, b, tol)
        else:
            if a < -_EDGE_TOL or b == math.inf:
                raise DomainError("archimedean support must be compact in [0, inf)")
            density = local_spectral(place, 1)
            res = integrate(lambda y: fn(y) * density(y), a, b, tol)
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
