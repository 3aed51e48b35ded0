"""Independent second routes, compared with the production routes by the
check suite and the tests, and the one module that imports mpmath.

The production modules keep one route per job and never import this one;
only `checks` (and the tests) do.

- `brute_force_phase_tables` builds every character mod m by subgroup
  extension, knowing nothing of primitive roots, CRT or `unit_group`;
  `conductor_by_divisor_test` reads a conductor off integer phases.  They
  check the census `characters.enumerate_xi` and
  `DirichletCharacter.conductor`.  `kronecker_symbol` (Euler's criterion)
  checks `DirichletCharacter.sign_at`.
- `lambda_inf_gamma_product` evaluates the archimedean spectral weight as a
  product of Lanczos gammas, the second route to `measures.local_spectral`.
- The working-precision routes (mpmath at ``_DPS`` digits): `completed_l`
  evaluates Lambda(s, chi) through the Hurwitz zeta, the second route to
  the closed-form Laurent data of `lfunctions`; `intertwining_ratio` is the
  constant-term ratio, through `zeta_ratio`.  They take the characters
  `lfunctions._is_trivial` accepts, and no other.
- `extract_series` fits Taylor data by symmetric stencils at working
  precision; `laurent_at_1_two_widths` and `central_series_function` apply
  it to the closed-form Laurent and edge data of `lfunctions`.
- `enumerate_rho` lists every choice assignment (a divisor of the level)
  and the per-assignment functions evaluate its term from the per-place
  factors of `rtf_constants` at (q, k, eta(q)), with eta the character
  itself (`DirichletCharacter.sign_at`);
  `edge_constants_by_enumeration` sums them, the second route to
  `rtf_constants.spectral_edge_constant`, which takes products over places
  of per-place sums.

The character and gamma oracles need numpy only.  mpmath, `lfunctions` and
`rtf_constants` are imported inside the analytic functions that use them,
so the census, sign and gamma checks load none of the three: `rtflab check`
loads them only in the process that runs its `rtf` group.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, partial
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .characters import DirichletCharacter
from .errors import CapExceededError, PoleError, RamifiedOverlapError
from .fields import LevelIdeal
from .special import gamma

if TYPE_CHECKING:
    import mpmath as mp

    from .lfunctions import LaurentData

# ---------------------------------------------------------------------------
# characters: subgroup extension and the divisor test


def brute_force_phase_tables(m: int) -> tuple[int, list[int], np.ndarray]:
    """Every character of (Z/m)^x as integer phases mod N = phi(m).

    Returns (N, units, phases): row j of the int64 matrix ``phases`` is one
    character, with chi(units[i]) = e^{2 pi i phases[j, i] / N}.  Built by
    subgroup extension only (no CRT, no primitive roots): a residue g of
    relative order r over the current domain has chi(g**r) = base already
    fixed, so chi(g) is one of the r roots (base + j N) / r, exact since r
    divides N and base.  The domain grows by the cosets g**i H (i < r) in the
    order the residues are taken, which does not depend on the character,
    so every table shares it: extending by g repeats each row r times (once
    per root j) and appends r - 1 shifted copies of the old columns.
    """
    if m == 1:
        return 1, [0], np.zeros((1, 1), dtype=np.int64)
    residues = [a for a in range(1, m) if math.gcd(a, m) == 1]
    N = len(residues)
    units = [1]
    column = {1: 0}
    phases = np.zeros((1, 1), dtype=np.int64)
    for g in residues:
        if g in column:
            continue
        # relative order of g over the domain subgroup
        r = 1
        x = g
        while x not in column:
            x = x * g % m
            r += 1
        # row k * r + j extends character k by its root j at g
        base = phases[:, column[x]]
        phase_g = np.repeat(base // r, r) + np.tile(np.arange(r, dtype=np.int64) * (N // r), len(base))
        old = np.repeat(phases, r, axis=0)
        blocks = [old]
        coset = []
        power = 1
        for i in range(1, r):
            power = power * g % m
            blocks.append((old + (i * phase_g % N)[:, None]) % N)
            coset.extend(h * power % m for h in units)
        for h in coset:
            column[h] = len(units)
            units.append(h)
        phases = np.concatenate(blocks, axis=1)
    return N, units, phases


def conductor_by_divisor_test(m: int, phase: Mapping[int, int]) -> int:
    """Smallest d | m with chi trivial on the units ≡ 1 (mod d).

    ``phase`` maps each unit mod m to an integer phase of chi there, 0
    exactly where chi is 1; residues it leaves out are the non-units.  Reads
    a `brute_force_phase_tables` row as ``dict(zip(units, row))`` and a
    `DirichletCharacter` through its `characters.phase_matrix` column.
    """
    for d in range(1, m + 1):
        if m % d == 0 and all(phase.get(a % m, 0) == 0 for a in range(1, m + 1, d)):
            return d
    raise ValueError("modulus must be positive")


def kronecker_symbol(D: int, p: int) -> int:
    """The Kronecker symbol (D/p) at a prime p, 0 where p divides D: Euler's
    criterion D**((p - 1)/2) mod p for odd p, and D mod 8 for p = 2.

    The second route to `DirichletCharacter.sign_at` of the real primitive
    character of discriminant D.
    """
    if D % p == 0:
        return 0
    if p == 2:
        return 1 if D % 8 in (1, 7) else -1
    return 1 if pow(D, (p - 1) // 2, p) == 1 else -1


# ---------------------------------------------------------------------------
# gamma: the archimedean spectral weight as a product of Lanczos gammas


def lambda_inf_gamma_product(y: float) -> float:
    """|Gamma(1/4 + iy/4)|**4 / (4 pi**2 |Gamma(iy/2)|**2) through the
    Lanczos `gamma`, 0 at y = 0: the second route to the archimedean
    `measures.local_spectral`.  Both gammas leave the normal floats near
    y = 450; on [0, 400] it is within 2e-13 relative of the production route.
    """
    y = float(y)
    if y == 0.0:
        return 0.0
    quarter = abs(gamma(complex(0.25, y / 4.0))) ** 2
    half = gamma(0.5j * y)
    return quarter * quarter / (4.0 * math.pi**2 * (half.real * half.real + half.imag * half.imag))


# ---------------------------------------------------------------------------
# L-functions at working precision (mp in, mp out, or complex at the API)

_DPS = 30


def _l_fin_mp(s, chi: DirichletCharacter):
    """L(s, chi) of a character `lfunctions._is_trivial` accepts: zeta(s) for
    the trivial one, else ``m**(-s) sum_a chi(a) zeta(s, a/m)`` over the units
    a mod m, valid in the entire s-plane, with its digamma limit at s = 1."""
    import mpmath as mp

    m = chi.modulus
    if m == 1:
        return mp.zeta(s)
    signs = [(a, 1 if k == 0 else -1) for a in range(1, m) if (k := chi.phase_index(a)) is not None]
    if abs(s - 1) < mp.mpf("1e-18"):
        return -mp.fsum(v * mp.digamma(mp.mpf(a) / m) for a, v in signs) / m
    return m ** (-s) * mp.fsum(v * mp.zeta(s, mp.mpf(a) / m) for a, v in signs)


def _completed_l_mp(s, chi: DirichletCharacter):
    """Lambda(s, chi) for a character `lfunctions._is_trivial` accepts, whose
    root number is 1: the half plane Re(s) < 1/2 reads Lambda(1 - s)."""
    import mpmath as mp

    s = mp.mpc(s)
    if s.real < 0.5:
        return _completed_l_mp(1 - s, chi)
    m = chi.modulus
    return (mp.mpf(m) / mp.pi) ** (s / 2) * mp.gamma(s / 2) * _l_fin_mp(s, chi)


def completed_l(s: complex, chi: DirichletCharacter) -> complex:
    """Completed L, (m/pi)**(s/2) Gamma(s/2) L(s, chi), of a character that
    `lfunctions._is_trivial` accepts (ValueError otherwise), so
    Lambda(s) = Lambda(1 - s).

    Entire for nontrivial chi; the trivial character mod 1 gives
    Lambda_zeta, with poles at s = 0 and s = 1 (`PoleError`).  The second
    route to `lfunctions.laurent_at_1`: its c0 is Lambda(1, chi).
    """
    from .lfunctions import _is_trivial

    s = complex(s)
    if _is_trivial(chi) and (abs(s) < 1e-14 or abs(s - 1.0) < 1e-14):
        raise PoleError(f"completed zeta pole at s = {s}")
    import mpmath as mp

    with mp.workdps(_DPS):
        return complex(_completed_l_mp(mp.mpc(s), chi))


def zeta_ratio(nu: complex) -> complex:
    """zeta(1 + nu) / zeta(1 - nu), with its limit -1 at nu = 0; `PoleError`
    where zeta(1 - nu) = 0.

    1 +- nu is formed exactly in mpmath: near the pole, rounding it in floats
    moves the ratio by up to 2**-52/|nu| relative.
    """
    nu = complex(nu)
    if nu == 0:
        return -1.0 + 0.0j
    import mpmath as mp

    with mp.workdps(_DPS):
        mp.mp.prec += max(0, -mp.mag(nu.real)) if nu.real else 0
        den = mp.zeta(1 - mp.mpc(nu))
        if not den:
            raise PoleError(f"zeta(1 - nu) vanishes at nu = {nu}")
        return complex(mp.zeta(1 + mp.mpc(nu)) / den)


def intertwining_ratio(chi: DirichletCharacter, d: LevelIdeal, nu: complex) -> complex:
    """Constant-term ratio m**(-nu) N(d)**(-nu) L(1 + nu)/L(1 - nu), the
    L-ratio being that of the primitive character inducing chi**2.

    chi is a character `lfunctions._is_trivial` accepts (ValueError
    otherwise), of conductor m.  It is real, so chi**2 is induced from the
    trivial character mod 1 and the L-ratio is `zeta_ratio`, -1 at nu = 0
    where the poles cancel.  d is the
    choice assignment, a divisor of the level (N(d)**(-nu) is taken as the
    product of q**(-k nu) over its factors v**k); `RamifiedOverlapError` at a
    place of d where chi is ramified.
    """
    from .lfunctions import _is_trivial

    _is_trivial(chi)
    nu = complex(nu)
    power = chi.modulus ** (-nu)
    for place, k in d.factors:
        if chi.phase_index(place.q) is None:
            raise RamifiedOverlapError(f"character is ramified at the active place {place.label}")
        power *= place.q ** (-k * nu)
    return power * zeta_ratio(nu)


# ---------------------------------------------------------------------------
# Laurent and edge data: symmetric stencil fits

_STENCIL_WIDTH = 1e-2
_CHECK_WIDTH = 5e-3
_STENCIL_LEVELS = 4


@cache
def _stencil_inverse(width: float) -> mp.matrix:
    """Inverse of the h**2-Vandermonde matrix of the stencil at ``width``.

    The nodes are rounded at working precision, as `extract_series` samples
    them; the inverse is taken with ten more digits.
    """
    import mpmath as mp

    with mp.workdps(_DPS):
        ts = [(mp.mpf(width) / 2**i) ** 2 for i in range(_STENCIL_LEVELS)]
        v = mp.matrix([[t**j for j in range(_STENCIL_LEVELS)] for t in ts])
    with mp.workdps(_DPS + 10):
        return mp.inverse(v)


def _stencil_parts(f: Callable, center: float, pole_order: int, h: mp.mpf) -> tuple:
    """(even, odd) parts at h of g(h) = h**pole_order * f(center + h):
    (g(h) + g(-h)) / 2 and (g(h) - g(-h)) / (2 h), at the working precision
    of the caller."""
    import mpmath as mp

    gp = mp.mpc(f(center + h)) * h**pole_order
    gm = mp.mpc(f(center - h)) * (-h) ** pole_order
    return (gp + gm) / 2, (gp - gm) / (2 * h)


def _fit_series(parts: Callable, width: float) -> list[float]:
    """The `extract_series` fit from ``parts(h)``, the `_stencil_parts` at
    each of the widths width / 2**i, at the working precision of the caller."""
    import mpmath as mp

    evens, odds = zip(*(parts(mp.mpf(width) / 2**i) for i in range(_STENCIL_LEVELS)))
    inverse = _stencil_inverse(width)
    even_coeffs = inverse * mp.matrix(evens)
    odd_coeffs = inverse * mp.matrix(odds)
    # coefficients a_0, a_1, a_2, ... of g(h)
    return [float(mp.re(c[j])) for j in range(_STENCIL_LEVELS) for c in (even_coeffs, odd_coeffs)]


def extract_series(f: Callable, center: float, pole_order: int, width: float) -> list[float]:
    """First ``2 * _STENCIL_LEVELS`` Taylor coefficients of
    h**pole_order * f(center + h).

    Symmetric stencils at widths width / 2**i; even and odd parts are fit
    separately against the Vandermonde system in h**2, whose inverse depends
    only on ``width`` and is computed once per width.  All arithmetic happens
    at working precision, so ``f`` may return mpmath values (preferred) or
    plain complex.
    """
    import mpmath as mp

    with mp.workdps(_DPS):
        return _fit_series(partial(_stencil_parts, f, center, pole_order), width)


def laurent_at_1_two_widths(xi: DirichletCharacter) -> tuple[LaurentData, LaurentData]:
    """Laurent data at s = 1 fitted by stencils at two base widths.

    The residue of the completed zeta (the trivial character's) is extracted,
    not assumed.  The check suite compares the two results with each other
    and with `lfunctions.laurent_at_1`.  The check width is half the base
    width, so the two fits share three of their four levels: the nodes are
    equal as mpf (halving is exact), and each is evaluated once.  Both fits
    equal those of two `extract_series` calls, bit for bit.
    """
    import mpmath as mp

    from .lfunctions import LaurentData, _is_trivial

    pole = 1 if _is_trivial(xi) else 0
    parts = cache(partial(_stencil_parts, partial(_completed_l_mp, chi=xi), 1.0, pole))
    with mp.workdps(_DPS):
        # A regular point has residue 0: pad the fitted coefficients accordingly.
        first, second = (
            LaurentData(*([0.0] * (1 - pole) + _fit_series(parts, w))[:3])
            for w in (_STENCIL_WIDTH, _CHECK_WIDTH)
        )
    return first, second


def central_series_function(eta: DirichletCharacter, discriminant_abs: int = 1) -> Callable:
    """The meromorphic function whose edge Laurent data feeds the residual
    constants: D**(nu/2) L((1+nu)/2) L((1-nu)/2) / Lambda_zeta(1 - nu),
    the function `lfunctions.edge_coefficients` expands at nu = -1.

    Returns a working-precision callable (mp in, mp out; plain complex also
    accepted)."""
    import mpmath as mp

    from .lfunctions import _is_trivial

    _is_trivial(eta)  # ValueError for a character the closed forms do not cover
    zeta = DirichletCharacter.trivial()

    def f(nu):
        nu = mp.mpc(nu)
        prefactor = mp.mpf(discriminant_abs) ** (nu / 2)
        num = _completed_l_mp((1 + nu) / 2, eta) * _completed_l_mp((1 - nu) / 2, eta)
        return prefactor * num / _completed_l_mp(1 - nu, zeta)

    return f


# ---------------------------------------------------------------------------
# spectral edge constants: every choice assignment, one term each


_RHO_CAP = 100_000  # the most assignments `enumerate_rho` lists


def enumerate_rho(n: LevelIdeal) -> list[LevelIdeal]:
    """Every choice assignment over the support of n as the divisor of n it
    picks: prod(e_v + 1) ideals in `itertools.product` order over the depths
    0..e_v, the unit ideal first.  `CapExceededError` beyond `_RHO_CAP`."""
    total = math.prod(e + 1 for _, e in n.factors)
    if total > _RHO_CAP:
        raise CapExceededError(f"assignment enumeration would produce {total} > cap {_RHO_CAP}")
    places = [p for p, _ in n.factors]
    ranges = [range(e + 1) for _, e in n.factors]
    return [LevelIdeal.from_map(dict(zip(places, combo))) for combo in itertools.product(*ranges)]


def flat_section_at_identity(d: LevelIdeal, eta: DirichletCharacter) -> float:
    """Value at the identity of the normalized flat section of eta attached to d.

    Depth-one places contribute eta(q) q**(1/2); depth k >= 2 contributes
    (1 - 1/q) eta(q)**k ((q+1)/(q-1))**(1/2) q**(k/2), with eta(q) its sign
    at the place.  The trivial character gives the trivial section.
    """
    from .rtf_constants import _section_factor

    return math.prod(_section_factor(p.q, k, eta.sign_at(p)) for p, k in d.factors)


def edge_product_taylor(d: LevelIdeal, eta: DirichletCharacter) -> tuple[float, float, float]:
    """Taylor coefficients (orders 0, 1, 2) at the edge point of the product of
    edge place factors over the factors of d.

    It is the jet product of the per-place `rtf_constants.edge_place_jet`.
    """
    from .lfunctions import jet_product
    from .rtf_constants import edge_place_jet

    return jet_product(edge_place_jet(p.q, k, eta.sign_at(p)) for p, k in d.factors)


def residue_value_half_one(d: LevelIdeal, eta: DirichletCharacter) -> float:
    """The closed-form product over the factors of d at the point (1/2, 1)."""
    from .rtf_constants import _value_factor

    return math.prod(_value_factor(p.q, k, eta.sign_at(p)) for p, k in d.factors)


def residual_term_constant(d: LevelIdeal, eta: DirichletCharacter) -> float:
    """The scalar a(d) entering the order -1 spectral edge constant.

    It combines epsilon(0) = sqrt(m) (root number 1, see `lfunctions`)
    times the value at (1/2, 1) with the second derivative at z = 0 of
    the residue place factors, which read no sign, through the Laurent data
    of eta at 1.
    """
    from .lfunctions import jet_product, laurent_at_1
    from .rtf_constants import _residual_combination, residue_place_jet

    value = residue_value_half_one(d, eta)
    twisted_d2 = 2.0 * jet_product(residue_place_jet(p.q, k) for p, k in d.factors)[2]
    eps0 = math.sqrt(eta.modulus)
    return _residual_combination(laurent_at_1(eta), eps0 * value, twisted_d2)


def edge_constants_by_enumeration(n: LevelIdeal, eta: DirichletCharacter) -> dict[int, float]:
    """The four spectral edge constants as explicit sums over every choice
    assignment, built from the per-assignment functions: the independent
    route to `rtf_constants.spectral_edge_constant`."""
    from .lfunctions import _INV_ZETA_HAT2_JET, edge_coefficients

    weight = _INV_ZETA_HAT2_JET[0]
    e = edge_coefficients(eta)
    trivial = DirichletCharacter.trivial()
    terms = {2: [], 1: [], 0: [], -1: []}
    for d in enumerate_rho(n):
        empty = 0.0 if d.factors else 1.0
        section = flat_section_at_identity(d, eta) + empty
        t0, t1, t2 = edge_product_taylor(d, eta)
        terms[2].append(section * 0.5 * t0 * e.c_minus2)
        terms[1].append(section * (e.c_minus1 * t0 + e.c_minus2 * t1))
        terms[0].append(section * (e.c_minus2 * t2 + e.c_minus1 * t1 + e.c_zero * t0))
        trivial_section = flat_section_at_identity(d, trivial) + empty
        terms[-1].append(weight * trivial_section * residual_term_constant(d, eta))
    return {order: math.fsum(t) for order, t in terms.items()}
