"""The executable invariant suite behind the `check` subcommand.

Every module's stated invariants are realized as named checks producing an
observed defect and a tolerance; the suite passes when every observed defect
is within tolerance.  A global tolerance override exists so a caller can
tighten all checks at once (tightening beyond floating point is expected to
fail, and the failing checks are reported by name).

Each check group imports what it runs, as each CLI subcommand does: the
analytic modules `lfunctions` and `rtf_constants` are imported inside
`check_rtf_constants`, and the second routes of `oracles` inside
`xi_matches_brute_force` and `check_rtf_constants`.  mpmath is imported by
the working-precision evaluators and stencil fits that only the rtf checks
call.  So when `run_all_checks` runs its groups in several processes, only
the one that runs the `rtf` group loads mpmath.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import cache
from itertools import combinations, product as iproduct

import numpy as np

from . import characters as chars
from . import measures as meas
from ._record import record
from .chunked import map_chunked
from .fields import RATIONALS, FinitePlace, LevelIdeal
from .local_factors import (
    HigherConductor,
    LocalRepresentation,
    Special,
    Spherical,
    period_constant,
    r_weight,
    satake_ratio,
)
from .special import EULER_GAMMA, abs_gamma_iy_sq_inv, abs_gamma_iy_sq_inv_lanczos, digamma

_PRIMES_TO_97 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


@record
class CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "observed": self.observed,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


def _place(p: int) -> FinitePlace:
    return RATIONALS.place_for_prime(p)


def _level(spec: dict[int, int]) -> LevelIdeal:
    return LevelIdeal.from_map({_place(p): e for p, e in spec.items()})


# ---------------------------------------------------------------------------
# per-module check groups


def _run(tol: float | None, rows) -> list[CheckResult]:
    """Run each (name, measure, default tolerance[, detail]) row of a group.

    ``tol`` overrides every default tolerance.  Each check runs under its
    own guard, so a crash fails that check alone, by its own name.
    """
    results = []
    for name, measure, default, *detail in rows:
        tolerance = float(default if tol is None else tol)
        try:
            observed = float(measure())
        except Exception as exc:
            results.append(CheckResult(name, False, math.inf, tolerance, f"{type(exc).__name__}: {exc}"))
            continue
        results.append(CheckResult(name, observed <= tolerance, observed, tolerance, *detail))
    return results


def check_fields(tol: float | None) -> list[CheckResult]:
    def norm_defects() -> int:
        rng = random.Random(20240901)
        worst = 0
        for _ in range(50):
            primes = rng.sample(_PRIMES_TO_97, 4)
            e = [rng.randint(1, 4) for _ in range(4)]
            a = _level({primes[0]: e[0], primes[1]: e[1]})
            b = _level({primes[2]: e[2], primes[3]: e[3]})
            if (a * b).norm() != a.norm() * b.norm():
                worst += 1
        return worst

    def support_defects() -> int:
        defects = 0
        for spec in ({2: 1}, {2: 2, 3: 1}, {2: 4, 3: 2, 5: 1}, {7: 3}):
            n = _level(spec)
            support = set(n.support())
            union = set()
            weighted = LevelIdeal.unit()
            for k in range(1, n.max_exponent() + 1):
                sk = n.support_at_order(k)
                if sk & union:
                    defects += 1
                union |= sk
                for p in sk:
                    weighted = weighted * LevelIdeal(((p, k),))
            if union != support or weighted != n:
                defects += 1
        return defects

    def square_divisor_defects() -> int:
        defects = 0
        for spec in ({2: 4}, {2: 1}, {2: 2, 3: 2}, {2: 3, 3: 1, 5: 6}):
            n = _level(spec)
            expected = math.prod(e // 2 + 1 for _, e in n.factors)
            if len(n.square_divisor_conductors()) != expected:
                defects += 1
        return defects

    return _run(tol, [
        ("fields.norm_multiplicative", norm_defects, 0),
        ("fields.support_partition", support_defects, 0),
        ("fields.square_divisor_count", square_divisor_defects, 0),
    ])


def check_characters(tol: float | None, census_limit: int = 200, gauss_limit: int = 300) -> list[CheckResult]:
    def eta_tilde_defects() -> int:
        rng = random.Random(20240902)
        defects = 0
        for _ in range(50):
            primes = rng.sample(_PRIMES_TO_97, 4)
            signs = {_place(p): rng.choice((1, -1)) for p in primes}
            eta = chars.QuadraticCharacterProfile.from_signs(signs)
            n1 = _level({primes[0]: rng.randint(1, 3), primes[1]: rng.randint(1, 3)})
            n2 = _level({primes[2]: rng.randint(1, 3), primes[3]: rng.randint(1, 3)})
            if eta.value_on_ideal(n1 * n2) != eta.value_on_ideal(n1) * eta.value_on_ideal(n2):
                defects += 1
        return defects

    def gauss_defect() -> float:
        worst = 0.0
        for m in range(1, gauss_limit + 1):
            for _, tau in chars.gauss_sums_for_modulus(m):
                worst = max(worst, abs(abs(tau) ** 2 - m))
        return worst

    # |Xi(m**2)| by m, recorded by whichever check enumerates Xi(m**2) first,
    # so each m is enumerated once while each check keeps its own guard.
    census: dict[int, int] = {}

    def xi_of_square(m: int) -> list[chars.DirichletCharacter]:
        listed = chars.enumerate_xi(LevelIdeal.from_integer(m * m))
        census[m] = len(listed)
        return listed

    def xi_defects() -> int:
        return sum(not xi_matches_brute_force(m, xi_of_square(m)) for m in range(1, census_limit + 1))

    def census_bound_defects() -> int:
        defects = 0
        for m in range(1, census_limit + 1):
            n = LevelIdeal.from_integer(m * m)
            count = census[m] if m in census else len(xi_of_square(m))
            if count > chars.census_proof_bound(n) + 1e-9:
                defects += 1
        return defects

    def golden_defect() -> float:
        golden = 2.0 / math.sqrt(5.0) * math.log((1.0 + math.sqrt(5.0)) / 2.0)
        return abs(float(chars.l_one(chars.DirichletCharacter.quadratic(5))) - golden)

    return _run(tol, [
        ("characters.eta_tilde_multiplicative", eta_tilde_defects, 0),
        ("characters.gauss_modulus_sq", gauss_defect, 1e-8, f"moduli up to {gauss_limit}"),
        ("characters.xi_vs_bruteforce", xi_defects, 0, f"moduli up to {census_limit}"),
        ("characters.census_bound", census_bound_defects, 0),
        ("characters.l_one_golden_ratio", golden_defect, 1e-9),
    ])


def xi_matches_brute_force(m: int, listed: list[chars.DirichletCharacter] | None = None) -> bool:
    """Compare Xi(m**2) with the subgroup-extension oracle mod m.

    ``listed`` is Xi(m**2) when the caller has enumerated it already, else
    `enumerate_xi` lists it here.  Both sides become rows of integer phases
    over the units mod m, scaled to N = phi(m).  A listed character has
    conductor f | m, so every unit mod m is a unit mod f and its group
    exponent divides N.  The sides are compared as lexsorted matrices, row
    for row, so a character listed twice is a mismatch too.
    """
    from . import oracles

    if listed is None:
        listed = chars.enumerate_xi(LevelIdeal.from_integer(m * m))
    N, units, brute = oracles.brute_force_phase_tables(m)
    at_units = np.array(units)
    by_modulus: dict[int, list[tuple[int, ...]]] = {}
    for chi in listed:
        by_modulus.setdefault(chi.modulus, []).append(chi.exponents)
    induced = [np.empty((0, len(units)), dtype=np.int64)]
    for c, rows in by_modulus.items():
        g = chars.unit_group(c)
        exps = np.array(rows, dtype=np.int64).reshape(len(rows), len(g.orders))
        induced.append(chars.phase_matrix(c, exps, at_units).T * (N // g.exponent))
    # Every even character mod m is induced from a unique even primitive
    # character whose conductor divides m, so its square divides m**2.
    if m > 2:
        brute = brute[brute[:, units.index(m - 1)] == 0]
    return np.array_equal(_lexsorted(np.concatenate(induced)), _lexsorted(brute))


def _lexsorted(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T)]


def check_local_factors(tol: float | None) -> list[CheckResult]:
    def admissible_grid(q: int) -> list[LocalRepresentation]:
        place = _place(q)
        reps = []
        for theta in np.linspace(0.0, math.pi, 9):
            reps.append(LocalRepresentation(place, Spherical(cmath.exp(1j * theta))))
        for sigma in (0.1, 0.5, 0.9):
            reps.append(LocalRepresentation(place, Spherical(q ** (sigma / 2.0))))
        reps.append(LocalRepresentation(place, Special(1)))
        reps.append(LocalRepresentation(place, Special(-1)))
        reps.append(LocalRepresentation(place, HigherConductor(2)))
        return reps

    def r_weight_negativity() -> float:
        neg = 0.0
        for q in _PRIMES_TO_97:
            for rep in admissible_grid(q):
                for sign in (1, -1):
                    for k in range(0, 9):
                        neg = min(neg, r_weight(rep, sign, k))
        return max(0.0, -neg)

    def satake_excess() -> float:
        worst = 0.0
        for q in _PRIMES_TO_97:
            for rep in admissible_grid(q):
                if isinstance(rep.data, Spherical):
                    worst = max(worst, abs(satake_ratio(rep.data, q)) - 1.0)
        return max(0.0, worst + 1e-15)

    def parity_defects() -> int:
        defects = 0
        for q in (2, 3, 5):
            rep = LocalRepresentation(_place(q), HigherConductor(3))
            for k in (1, 3, 5, 7):
                if r_weight(rep, -1, k) != 0.0:
                    defects += 1
            for k in (2, 4, 6):
                if r_weight(rep, -1, k) != 1.0:
                    defects += 1
        return defects

    def period_at_zero_defects() -> int:
        defects = 0
        for data in (Spherical(1.0), Spherical(cmath.exp(0.7j)), Special(-1), HigherConductor(4)):
            rep = LocalRepresentation(_place(2), data)
            for sign in (1, -1):
                if period_constant(rep, sign, 0) != 1.0 + 0.0j:
                    defects += 1
        return defects

    def sum_product_defect() -> float:
        rng = random.Random(20240903)
        worst = 0.0
        for _ in range(200):
            n_places = rng.randint(1, 4)
            ks = [rng.randint(1, 4) for _ in range(n_places)]
            arrays = [[rng.uniform(-1.0, 1.0) for _ in range(k + 1)] for k in ks]
            total = 0.0
            for combo in iproduct(*[range(k + 1) for k in ks]):
                total += math.prod(arrays[i][j] for i, j in enumerate(combo))
            factored = math.prod(float(np.sum(a)) for a in arrays)
            worst = max(worst, abs(total - factored))
        return worst

    return _run(tol, [
        ("local.r_weight_nonnegative", r_weight_negativity, 1e-12),
        ("local.satake_ratio_open_set", satake_excess, 1e-12, "|Q| < 1 on the admissible grid"),
        ("local.parity_vanishing_exact", parity_defects, 0),
        ("local.period_constant_at_zero", period_at_zero_defects, 0),
        ("local.sum_product_identity", sum_product_defect, 1e-12),
    ])


def check_measures(tol: float | None) -> list[CheckResult]:
    def semicircle_mass_defect() -> float:
        res = meas.sato_tate().mass(1e-11)
        return max(abs(res.value - 1.0), res.error_estimate)

    def plancherel_mass_defect() -> float:
        worst = 0.0
        for p in (2, 3, 5, 7, 11):
            for sign in (1, -1):
                got = meas.plancherel(p, sign).mass(1e-10)
                closed = meas.plancherel_mass_closed_form(p, sign)
                worst = max(worst, abs(got.value - closed), abs(got.value - 1.0), got.error_estimate)
        return worst

    def halfwindow_defect() -> float:
        worst = 0.0
        for q in (2, 3, 5):
            for sign in (1, -1):
                worst = max(worst, meas.pushforward_check(_place(q), sign, 1000))
        return worst

    def fullwindow_defect() -> float:
        worst = 0.0
        for q in (2, 3, 5):
            for sign in (1, -1):
                lo, hi = meas.pushforward_fullwindow_factor(_place(q), sign, 400)
                worst = max(worst, abs(lo - 2.0), abs(hi - 2.0))
        return worst

    def symmetry_defect() -> float:
        # True symmetries of the finite-place formula: even in y and periodic
        # with period 4 pi / log q (the window is a fundamental domain for
        # both); the minus-sign density is additionally symmetric about the
        # window midpoint.  The kernel is the formula on all of R.
        worst = 0.0
        for q in (2, 5):
            window = 2.0 * math.pi / math.log(q)
            kernels = {sign: meas.local_spectral(_place(q), sign).kernel for sign in (1, -1)}
            for fn in kernels.values():
                for y in np.linspace(0.05 * window, 0.95 * window, 40):
                    base = fn(float(y))
                    worst = max(worst, abs(fn(float(y) + 2.0 * window) - base))
                    worst = max(worst, abs(fn(-float(y)) - base))
            minus = kernels[-1]
            for y in np.linspace(0.05 * window, 0.45 * window, 20):
                worst = max(worst, abs(minus(float(y)) - minus(window - float(y))))
        return worst

    def negativity() -> float:
        neg = 0.0
        densities = [meas.sato_tate()] + [meas.plancherel(p, sign) for p in (2, 7) for sign in (1, -1)]
        for x in np.linspace(-2.0, 2.0, 201):
            for density in densities:
                neg = min(neg, density(float(x)))
        lambdas = [meas.local_spectral(_place(2), sign) for sign in (1, -1)]
        for y in np.linspace(0.0, 2.0 * math.pi / math.log(2.0), 101):
            for density in lambdas:
                neg = min(neg, density(float(y)))
        arch = meas.local_spectral(None, 1)
        for y in np.linspace(0.0, 20.0, 101):
            neg = min(neg, arch(float(y)))
        return max(0.0, -neg)

    def refinement_growth() -> float:
        density = meas.plancherel(3, -1)
        oracle = meas.plancherel_mass_closed_form(3, -1)
        errs = []
        for t in (1e-3, 1e-5, 1e-7, 1e-9):
            errs.append(abs(meas.integrate_density(density, -2.0, 2.0, t).value - oracle))
        return max(max(0.0, errs[i + 1] - errs[i] - 1e-15) for i in range(len(errs) - 1))

    return _run(tol, [
        ("measures.mass_semicircle", semicircle_mass_defect, 1e-10),
        ("measures.mass_plancherel", plancherel_mass_defect, 1e-8),
        ("measures.pushforward_halfwindow", halfwindow_defect, 1e-9),
        ("measures.pushforward_fullwindow_factor2", fullwindow_defect, 1e-9),
        ("measures.lambda_symmetry_periodicity", symmetry_defect, 1e-12),
        ("measures.densities_nonnegative", negativity, 0),
        ("measures.refinement_monotone", refinement_growth, 0,
         "halving tol never worsens the defect (1e-15 float floor)"),
    ])


def check_gamma(tol: float | None) -> list[CheckResult]:
    def lanczos_defect() -> float:
        worst = 0.0
        for y in np.linspace(0.1, 30.0, 300):
            a = abs_gamma_iy_sq_inv_lanczos(float(y))
            b = abs_gamma_iy_sq_inv(float(y))
            worst = max(worst, abs(a - b) / abs(b))
        return worst

    def digamma_defect() -> float:
        d1 = abs(digamma(1.0) + EULER_GAMMA)
        d2 = abs(digamma(0.5) + EULER_GAMMA + 2.0 * math.log(2.0))
        return max(d1, d2)

    return _run(tol, [
        ("gamma.lanczos_vs_reflection", lanczos_defect, 1e-10),
        ("gamma.digamma_classical_values", digamma_defect, 1e-12),
    ])


def _fd_first(f, x0: float, h: float) -> float:
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def _fd_second(f, x0: float, h: float) -> float:
    return (f(x0 + h) - 2.0 * f(x0) + f(x0 - h)) / (h * h)


def check_rtf_constants(tol: float | None) -> list[CheckResult]:
    from . import lfunctions as lfn
    from . import oracles
    from . import rtf_constants as rtf

    arch = RATIONALS.archimedean_places[0]
    trivial = chars.DirichletCharacter.trivial()

    @cache
    def chi5() -> chars.DirichletCharacter:
        # Built inside the checks that use it, so a failure here is theirs alone.
        return chars.DirichletCharacter.quadratic(5)

    def derivative_defect(order: int) -> float:
        fd = _fd_first if order == 1 else _fd_second
        worst = 0.0
        for q, k, sign in iproduct((2, 3, 5, 7), range(1, 6), (1, -1)):
            block = rtf.EdgePlaceBlock(q, k, sign)
            for jet, f, x0 in ((rtf.edge_place_jet(block), lambda nu: rtf.edge_place_factor(nu, block).real, -1.0),
                               (rtf.residue_place_jet(block), lambda z: rtf.residue_place_factor(z, block).real, 0.0)):
                d = math.factorial(order) * jet[order]
                worst = max(worst, abs(d - fd(f, x0, 1e-4)) / max(1.0, abs(d)))
        return worst

    def edge_taylor_defect() -> float:
        # The production sum over assignments against their enumeration.
        worst = 0.0
        for ctx in (rtf.eta_context(trivial), rtf.eta_context(chi5())):
            for spec in ({2: 2, 3: 1}, {2: 1, 3: 2, 11: 2}):
                n = _level(spec)
                expected = oracles.edge_constants_by_enumeration(n, ctx)
                for order, y in expected.items():
                    got = rtf.spectral_edge_constant(n, ctx, order)
                    worst = max(worst, abs(got - y) / max(1.0, abs(y)))
        eta = chars.QuadraticCharacterProfile.from_signs(
            {_place(2): -1, _place(3): 1, _place(5): -1}
        )
        for spec in ({2: 1}, {2: 2}, {2: 1, 3: 2}, {2: 2, 3: 1, 5: 3}):
            n = _level(spec)
            for rho in oracles.enumerate_rho(n):
                if len(rho.active()) > 3:
                    continue
                t0, t1, t2 = oracles.edge_product_taylor(rho, eta)
                blocks = [rtf.EdgePlaceBlock(p.q, k, eta.sign_at(p)) for p, k in rho.active()]
                prod_fn = lambda nu: math.prod((rtf.edge_place_factor(nu, b) for b in blocks), start=1 + 0j)
                a = oracles.extract_series(prod_fn, -1.0, 0, 1e-2)
                scale = max(1.0, abs(t0), abs(t1), abs(t2))
                worst = max(worst, abs(t0 - a[0]) / scale, abs(t1 - a[1]) / scale,
                            abs(t2 - a[2]) / scale)
        return worst

    def level_constant_defect() -> float:
        worst = 0.0
        for combo in iproduct(range(5), range(5), range(5)):
            spec = {p: e for p, e in zip((2, 3, 5), combo) if e > 0}
            if not spec:
                continue
            n = _level(spec)
            heavy = [(p, e) for p, e in spec.items() if e >= 2]
            total = 1.0
            for j in range(1, len(heavy) + 1):
                for subset in combinations(heavy, j):
                    term = (-1.0) ** j
                    for p, e in subset:
                        term *= (1.0 - 1.0 / p) ** (-1 if e == 2 else 0) / p**2
                    total += term
            worst = max(worst, abs(total - rtf.level_constant(n)))
        return worst

    @cache
    def zeta_two_widths() -> tuple[lfn.LaurentData, lfn.LaurentData]:
        # Shared by the width and residue checks, each still guarded alone.
        return oracles.laurent_at_1_two_widths(trivial)

    def laurent_defect() -> float:
        # The two stencil widths against each other and against the closed form.
        worst = 0.0
        for xi in (trivial, chi5()):
            closed = lfn.laurent_at_1(xi)
            first, second = zeta_two_widths() if xi is trivial else oracles.laurent_at_1_two_widths(xi)
            for other in (first, closed):
                worst = max(worst, abs(other.residue - second.residue),
                            abs(other.c0 - second.c0), abs(other.c1 - second.c1))
        return worst

    def residue_defect() -> float:
        return abs(zeta_two_widths()[1].residue - 1.0)

    def edge_reconstruction_defect() -> float:
        # Near the double pole the three coefficients determine the function
        # to relative O(h^3); at a regular point (nontrivial character) the
        # polar coefficients vanish and c_zero is the value itself.
        h = 0.01
        coeffs = lfn.edge_coefficients(trivial)
        f = oracles.central_series_function(trivial)
        direct = complex(f(-1.0 + h)).real
        recon = coeffs.c_minus2 / h**2 + coeffs.c_minus1 / h + coeffs.c_zero
        worst = abs(direct - recon) / abs(direct)
        coeffs5 = lfn.edge_coefficients(chi5())
        f5 = oracles.central_series_function(chi5())
        worst = max(worst, abs(coeffs5.c_minus2), abs(coeffs5.c_minus1))
        return max(worst, abs(coeffs5.c_zero - complex(f5(-1.0)).real))

    def orbit_factor_defect() -> float:
        up = rtf.unipotent_orbit_factor({arch: 1.0 + 0.0j}, lambda p: 1)
        return abs(up - (-math.pi / 8.0))

    def orbit_flat_defect() -> float:
        laurent5 = lfn.laurent_at_1(chi5())
        worst = 0.0
        base = None
        for s in (0.5, 1.0, 2.0, 3.5):
            for a_spec in ({}, {2: 1}, {3: 2}):
                val = rtf.unipotent_orbit_constant(
                    {arch: complex(s), _place(7): complex(s)}, _level(a_spec), laurent5
                )
                if base is None:
                    base = val
                worst = max(worst, abs(val - base))
        lhat5 = lfn.completed_l(1.0, chi5())
        return max(worst, abs(complex(base) - lhat5))

    def orbit_growth_defect() -> float:
        laurent1 = lfn.laurent_at_1(trivial)
        worst = 0.0
        for spec in ({2: 1}, {2: 3, 5: 1}, {3: 2}):
            n = _level(spec)
            delta = rtf.unipotent_orbit_constant({arch: 2.0 + 0.0j}, n, laurent1) - \
                rtf.unipotent_orbit_constant({arch: 2.0 + 0.0j}, LevelIdeal.unit(), laurent1)
            worst = max(worst, abs(delta - laurent1.residue * 0.5 * math.log(n.norm())))
        return worst

    def involution_defect() -> float:
        worst = 0.0
        rho = oracles.enumerate_rho(_level({2: 2, 3: 1}))[4]
        for chi in (trivial, chi5()):
            for nu in (0.3, 0.45 + 0.2j):
                prod = rtf.intertwining_ratio(chi, rho, nu) * rtf.intertwining_ratio(chi, rho, -nu)
                worst = max(worst, abs(prod - 1.0))
        return worst

    return _run(tol, [
        ("rtf.derivatives_first_vs_fd", lambda: derivative_defect(1), 1e-6),
        ("rtf.derivatives_second_vs_fd", lambda: derivative_defect(2), 1e-5),
        ("rtf.edge_taylor_vs_numeric", edge_taylor_defect, 1e-6),
        ("rtf.inclusion_exclusion_level_constant", level_constant_defect, 1e-12),
        ("rtf.laurent_two_widths", laurent_defect, 1e-7),
        ("rtf.completed_zeta_residue_one", residue_defect, 1e-7),
        ("rtf.edge_coefficients_reconstruct", edge_reconstruction_defect, 1e-4),
        ("rtf.orbit_factor_arch_at_one", orbit_factor_defect, 1e-12),
        ("rtf.orbit_constant_flat_nontrivial", orbit_flat_defect, 1e-10),
        ("rtf.orbit_constant_log_growth", orbit_growth_defect, 1e-10),
        ("rtf.intertwining_involution", involution_defect, 1e-10),
    ])


def run_all_checks(tol: float | None = None) -> list[CheckResult]:
    """Run the complete invariant suite; tol overrides every check tolerance.

    Internal quadrature keeps its default working tolerances; the override
    only moves the pass thresholds, so an impossible request fails loudly in
    the report instead of aborting the suite.  Every check runs under its
    own guard, so a crash fails that check alone, by its own name.  The
    groups are cut into contiguous chunks, one per CPU, and run through
    `rtflab.chunked`; the results keep the group order.
    """
    groups = (
        check_fields,
        check_characters,
        check_local_factors,
        check_measures,
        check_gamma,
        check_rtf_constants,
    )

    def run(start: int, stop: int) -> list[CheckResult]:
        return [result for group in groups[start:stop] for result in group(tol)]

    return [result for part in map_chunked(run, len(groups), 1) for result in part]
