"""Spectral measures on the unitary domains and their quadrature.

The semicircle density, the per-prime level-aspect densities against both
signs, and the per-place spectral densities (archimedean and finite) live
here, with every use of the Satake variable x = 2 cos(theta): semicircle-type
densities are integrated in theta (`theta_integrand`), and the finite-place
density is the per-prime density transported by x = 2 cos(y log(q)/2) from
the window [0, 2 pi / log q], which `local_spectral` computes once
(``Density.hi``).  The half-angle in that map is essential: with it, the
window maps once onto [-2, 2] and the transported density matches pointwise
(total mass one); dropping the halving, as if the full window were an angle
sweep, scales the Jacobian by exactly two, which is the negative control
exposed below.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Mapping

from ._record import record
from .errors import DomainError
from .fields import ArchimedeanPlace, FinitePlace, Place, place_sort_key
from .local_factors import local_l_character
from .quadrature import QuadratureResult, integrate
from .special import orbit_gamma_ratio

if TYPE_CHECKING:
    from .characters import DirichletCharacter

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
    """Signed integral of a density from a to b, both inside its domain.

    Reversed bounds give the negative, as `integrate` does, for every kind
    of density.  Endpoints within the edge tolerance of the domain are
    clamped onto it; others raise DomainError.  A semicircle-type density
    (``cos_substitution``) is integrated in theta = arccos(x / 2).
    """
    lo, hi = density.lo, density.hi
    if not all(lo - _EDGE_TOL <= t <= hi + _EDGE_TOL for t in (a, b)):
        raise DomainError(f"[{a}, {b}] is not inside the domain of {density.tag}")
    a, b = min(max(a, lo), hi), min(max(b, lo), hi)
    if density.cos_substitution:
        # theta decreases as x increases, so the bounds swap.
        return integrate(theta_integrand(density), math.acos(b / 2.0), math.acos(a / 2.0), tol)
    return integrate(density.kernel, a, b, tol)


def theta_integrand(density: Density) -> Callable[[float], float]:
    """The kernel of a density on [-2, 2] in theta: kernel(2 cos theta) * 2 sin theta.

    Its integral over [theta_lo, theta_hi] inside [0, pi] is that of the
    density over [2 cos theta_hi, 2 cos theta_lo].  For a density with
    sqrt(4 - x**2) endpoints it is smooth there.
    """
    kernel = density.kernel

    def g(theta: float) -> float:
        return kernel(2.0 * math.cos(theta)) * 2.0 * math.sin(theta)

    return g


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
    Each point takes one complex power p = q**(-s) at s = 1/2 + iy/2 and
    writes the four local factors at s = 1/2 +- iy/2 as 1/(1 - p),
    1/(1 - chi p) and their twins at the conjugate power.  The power at
    1/2 - iy/2 is the conjugate of p: complex pow on a positive real base
    returns len * (cos phi, sin phi) with phi = b.imag * log q, and cos is
    even and sin odd, so the conjugate equals the power it replaces (at y = 0
    up to the sign of its zero imaginary part).  No pole guard is needed:
    for real y, |chi p| = q**(-1/2) <= 2**(-1/2), so |1 - chi p| >= 0.29.
    Every other step is the one `local_l_spherical` and two
    `local_l_character` calls take, so the value is the same float.
    """
    log_q = math.log(q)
    l_one_sign = local_l_character(1.0, complex(sign), q)
    four_pi = 4.0 * math.pi
    chi = complex(sign)

    def fn(y: float) -> float:
        p = q ** complex(-0.5, -(y / 2.0))
        pc = p.conjugate()
        spherical = (1.0 / (1.0 - p)) * (1.0 / (1.0 - pc))
        twisted = (1.0 / (1.0 - chi * p)) * (1.0 / (1.0 - chi * pc))
        num = (spherical * twisted / l_one_sign).real
        kernel = 2.0 - 2.0 * math.cos(y * log_q)  # |1 - q^{-iy}|^2
        return num * log_q / four_pi * kernel

    return fn


def local_spectral(place: Place, sign: int = 1) -> Density:
    """The per-place spectral density in y on its window; checks sign once.

    The sign is that of the character at the place.  The characters the
    analytic path accepts are even, so an archimedean place takes sign +1
    only (`ValueError` for -1).  A finite place uses the weight
    (log q / (4 pi)) |1 - q**(-iy)|**2 times the two central local factors
    over the local value at 1 of the sign character; its ``kernel`` is the
    formula on all of R.  An archimedean place uses y tanh(pi y/2) |G(iy)| /
    (4 pi), G = `special.orbit_gamma_ratio`.  By reflection at 1/4 + iy/4 it
    equals |Gamma_R(1/2 + iy/2)|**4 |Gamma(iy/2)|**(-2) / (4 pi), yet it is
    finite at every y (within 2.3e-14 relative of mpmath below y = 50,
    where G takes its Lanczos difference, and 4.5e-16 from there to 1e300).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if isinstance(place, ArchimedeanPlace):
        if sign != 1:
            raise ValueError("the sign character is even: its sign at an archimedean place is +1")
        four_pi = 4.0 * math.pi

        def arch(y: float) -> float:
            return y * math.tanh(math.pi * y / 2.0) * abs(orbit_gamma_ratio(complex(0.0, y))) / four_pi

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
    density, mu = local_spectral(place, sign), plancherel(q, sign)
    half = density.hi / 2  # pi / log q to the bit: halving is exact
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
    density, mu = local_spectral(place, sign), plancherel(q, sign)
    lo, hi = math.inf, -math.inf
    for i in range(1, grid_size + 1):
        y = density.hi * i / (grid_size + 1)
        x = satake_x_of_y(y, q)
        unhalved = mu(x) * math.log(q) * math.sqrt(max(4.0 - x * x, 0.0))
        ratio = unhalved / density(y)
        lo, hi = min(lo, ratio), max(hi, ratio)
    return lo, hi


# ---------------------------------------------------------------------------
# the product pairing


def spectral_pairing(
    test_functions: Mapping[Place, tuple[Callable[[float], float], tuple[float, float]]],
    eta: DirichletCharacter,
    tol: float = 1e-10,
) -> QuadratureResult:
    """Pairing of a product test function against the product spectral measure.

    ``test_functions`` maps each place of S to (function, support [a, b]).
    One rule holds at every place: 0 <= a <= b <= the end of the window
    (``Density.hi``, infinite at an archimedean place) with b finite, up to
    the edge tolerance; any other support, NaN included, raises DomainError.
    A finite place takes the density of the sign of eta there, an
    archimedean place sign +1 (eta is even).  The result is the product of
    the per-place integrals in the order of `fields.place_sort_key`, with
    first-order error propagation through the product.
    """
    values: list[float] = []
    errors: list[float] = []
    subdivisions = 0
    for place in sorted(test_functions, key=place_sort_key):
        fn, (a, b) = test_functions[place]
        density = local_spectral(place, eta.sign_at(place) if isinstance(place, FinitePlace) else 1)
        if not (-_EDGE_TOL <= a <= b <= density.hi + _EDGE_TOL and b < math.inf):
            raise DomainError(f"support [{a}, {b}] is not a compact part of the window at {place.label}")
        res = integrate(lambda y: fn(y) * density(y), a, b, tol)
        values.append(res.value)
        errors.append(res.error_estimate)
        subdivisions += res.subdivisions
    err = 0.0
    for i, e in enumerate(errors):
        partial = math.prod(abs(v) for j, v in enumerate(values) if j != i)
        err += e * partial
    return QuadratureResult(math.prod(values), err, subdivisions)
