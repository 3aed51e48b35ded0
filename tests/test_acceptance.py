"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with plain `pytest`; a summary block lists PASS/FAIL per criterion at the
end of the session.
"""

import cmath
import itertools
import json
import math
import time

import numpy as np

from _registry import record

from rtflab.characters import (
    DirichletCharacter,
    census_proof_bound,
    enumerate_xi,
    gauss_sums_for_modulus,
)
from rtflab.checks import run_all_checks, xi_matches_brute_force
from rtflab.cli import main as cli_main
from rtflab.empirical import inverse_cdf_sample, sample_from_rows, write_sample_csv
from rtflab.fields import LevelIdeal, RATIONALS
from rtflab.lfunctions import edge_coefficients, laurent_at_1
from rtflab.local_factors import HigherConductor, Special, Spherical, global_weight, r_weight
from rtflab.measures import (
    integrate_density,
    local_spectral,
    plancherel,
    plancherel_mass_closed_form,
    pushforward_check,
    pushforward_fullwindow_factor,
    sato_tate,
)
from rtflab import rtf_constants as rtf
from rtflab.oracles import (
    lambda_inf_gamma_product,
    central_series_function,
    edge_product_taylor,
    enumerate_rho,
    laurent_at_1_two_widths,
)
from rtflab.special import EULER_GAMMA, digamma

P = RATIONALS.place_for_prime
ARCH = RATIONALS.archimedean_places[0]
TRIVIAL = DirichletCharacter.trivial()
CHI5 = DirichletCharacter.quadratic(5)


def L(spec):
    return LevelIdeal.from_map({P(p): e for p, e in spec.items()})


def _finish(number, description, condition, detail=""):
    record(number, description, bool(condition), detail)
    assert condition, f"criterion {number}: {description} ({detail})"


def test_criterion_01_measure_masses():
    t0 = time.perf_counter()
    worst_st = abs(integrate_density(sato_tate(), -2.0, 2.0, 1e-11).value - 1.0)
    worst_p = 0.0
    for p in (2, 3, 5, 7, 11):
        for sign in (1, -1):
            closed = plancherel_mass_closed_form(p, sign)
            got = integrate_density(plancherel(p, sign), -2.0, 2.0, 1e-9).value
            worst_p = max(worst_p, abs(got - closed), abs(got - 1.0))
    elapsed = time.perf_counter() - t0
    _finish(
        1,
        "measure masses (semicircle 1e-10, per-prime 1e-8, < 5 s)",
        worst_st <= 1e-10 and worst_p <= 1e-8 and elapsed < 5.0,
        f"semicircle defect {worst_st:.2e}, per-prime defect {worst_p:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_change_of_variables():
    worst = 0.0
    control = 0.0
    for q in (2, 3, 5):
        for sign in (1, -1):
            worst = max(worst, pushforward_check(P(q), sign, 1000))
            lo, hi = pushforward_fullwindow_factor(P(q), sign, 1000)
            control = max(control, abs(lo - 2.0), abs(hi - 2.0))
    _finish(
        2,
        "change-of-variables identity and factor-2 negative control",
        worst <= 1e-9 and control <= 1e-9,
        f"pointwise defect {worst:.2e}, control defect {control:.2e}",
    )


def test_criterion_03_gamma_machinery():
    lambda_inf = local_spectral(ARCH, 1).kernel
    worst = 0.0
    for y in [*np.linspace(0.1, 30.0, 600).tolist(), *np.linspace(50.0, 400.0, 71).tolist()]:
        a = lambda_inf_gamma_product(y)
        b = lambda_inf(y)
        worst = max(worst, abs(a - b) / b)
    d1 = abs(digamma(1.0) + EULER_GAMMA)
    d2 = abs(digamma(0.5) + EULER_GAMMA + 2.0 * math.log(2.0))
    _finish(
        3,
        "gamma dual route 1e-10 and digamma gates 1e-12",
        worst <= 1e-10 and d1 <= 1e-12 and d2 <= 1e-12,
        f"dual-route rel {worst:.2e}, digamma defects {d1:.1e}/{d2:.1e}",
    )


def test_criterion_04_derivative_suite():
    worst1 = worst2 = 0.0
    h = 1e-4
    for q in (2, 3, 5, 7):
        for k in range(1, 6):
            for sign in (1, -1):
                f = lambda nu: rtf.edge_place_factor(nu, q, k, sign).real
                fd1 = (f(-1 + h) - f(-1 - h)) / (2 * h)
                fd2 = (f(-1 + h) - 2 * f(-1.0) + f(-1 - h)) / (h * h)
                _, d1, half_d2 = rtf.edge_place_jet(q, k, sign)
                d2 = 2.0 * half_d2
                worst1 = max(worst1, abs(d1 - fd1) / max(1.0, abs(d1)))
                worst2 = max(worst2, abs(d2 - fd2) / max(1.0, abs(d2)))
                g = lambda z: rtf.residue_place_factor(z, q, k).real
                _, rd1, half_rd2 = rtf.residue_place_jet(q, k)
                rd2 = 2.0 * half_rd2
                worst1 = max(worst1, abs(rd1 - (g(h) - g(-h)) / (2 * h)) / max(1.0, abs(rd1)))
                worst2 = max(
                    worst2, abs(rd2 - (g(h) - 2 * g(0.0) + g(-h)) / (h * h)) / max(1.0, abs(rd2))
                )
    # Taylor data of the product over assignments with <= 3 active places.
    eta = DirichletCharacter.quadratic(13)  # signs -1, +1, -1 at 2, 3, 5
    worst_taylor = 0.0
    for spec in ({2: 2}, {2: 1, 3: 2}, {2: 2, 3: 1, 5: 3}):
        for d in enumerate_rho(L(spec)):
            if not 1 <= len(d.factors) <= 3:
                continue
            places = [(p.q, k, eta.sign_at(p)) for p, k in d.factors]

            def prod(nu):
                acc = 1.0
                for v in places:
                    acc *= rtf.edge_place_factor(nu, *v).real
                return acc

            xs = np.linspace(-0.04, 0.04, 13)
            fit = np.polyfit(xs, [prod(-1.0 + x) for x in xs], 6)[::-1]
            t0, t1, t2 = edge_product_taylor(d, eta)
            scale = max(1.0, abs(t0), abs(t1), abs(t2))
            worst_taylor = max(
                worst_taylor,
                abs(t0 - fit[0]) / scale,
                abs(t1 - fit[1]) / scale,
                abs(t2 - fit[2]) / scale,
            )
    _finish(
        4,
        "per-place jet derivatives vs finite differences; product Taylor data",
        worst1 <= 1e-6 and worst2 <= 1e-5 and worst_taylor <= 1e-6,
        f"first {worst1:.2e}, second {worst2:.2e}, taylor {worst_taylor:.2e}",
    )


def test_criterion_05_weight_combinatorics():
    rng = np.random.default_rng(20240905)
    worst = 0.0
    for _ in range(200):
        ks = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))]
        arrays = [rng.uniform(-1.0, 1.0, size=k + 1) for k in ks]
        lhs = 0.0
        for combo in itertools.product(*[range(k + 1) for k in ks]):
            lhs += math.prod(arrays[i][j] for i, j in enumerate(combo))
        rhs = math.prod(float(np.sum(a)) for a in arrays)
        worst = max(worst, abs(lhs - rhs))

    neg = 0.0
    for q in (2, 3, 5, 13, 97):
        place = P(q)
        grid = [Spherical(cmath.exp(1j * t)) for t in np.linspace(0, math.pi, 9)]
        grid += [Spherical(q ** (s / 2.0)) for s in (0.1, 0.5, 0.9)]
        grid += [Special(1), Special(-1), HigherConductor(2)]
        for data in grid:
            for sign in (1, -1):
                for k in range(9):
                    neg = min(neg, r_weight(place, data, sign, k))

    parity_exact = all(r_weight(P(2), HigherConductor(3), -1, k) == 0.0 for k in (1, 3, 5, 7))

    eta = DirichletCharacter.quadratic(5)  # signs -1, -1 at 2, 3
    conductor = L({2: 2, 3: 1})
    reps_map = {P(2): HigherConductor(2), P(3): Special(-1)}
    at_conductor = global_weight(reps_map, eta, conductor, conductor)

    _finish(
        5,
        "sum-over-assignments identity, nonnegativity, parity vanishing, w = 1 at the conductor",
        worst <= 1e-12 and neg >= -1e-12 and parity_exact and at_conductor == 1.0,
        f"identity defect {worst:.2e}, min weight {neg:.1e}",
    )


def test_criterion_06_inclusion_exclusion():
    worst = 0.0
    for combo in itertools.product(range(5), repeat=3):
        spec = {p: e for p, e in zip((2, 3, 5), combo) if e}
        if not spec:
            continue
        heavy = [(p, e) for p, e in spec.items() if e >= 2]
        total = 1.0
        for j in range(1, len(heavy) + 1):
            for subset in itertools.combinations(heavy, j):
                term = (-1.0) ** j
                for p, e in subset:
                    term *= (1.0 - 1.0 / p) ** (-1 if e == 2 else 0) / p**2
                total += term
        worst = max(worst, abs(total - rtf.level_constant(L(spec))))
    _finish(
        6,
        "inclusion-exclusion telescopes to the level constant (<= 3 primes, exp <= 4)",
        worst <= 1e-12,
        f"worst defect {worst:.2e}",
    )


def test_criterion_07_character_suite():
    worst_tau = 0.0
    for m in range(1, 501):
        for _, tau in gauss_sums_for_modulus(m):
            worst_tau = max(worst_tau, abs(abs(tau) - math.sqrt(m)))

    census_ok = all(xi_matches_brute_force(m) for m in range(1, 201))

    bound_ok = True
    for m in range(1, 201):
        n = LevelIdeal.from_integer(m * m)
        if len(enumerate_xi(n)) > census_proof_bound(n) + 1e-9:
            bound_ok = False

    golden = 2.0 / math.sqrt(5.0) * math.log((1.0 + math.sqrt(5.0)) / 2.0)
    l_defect = abs(laurent_at_1(CHI5).c0 / math.sqrt(5.0) - golden)

    _finish(
        7,
        "Gauss-sum modulus (m <= 500), census vs brute force (m <= 200), bound, L(1, chi_5)",
        worst_tau <= 1e-10 and census_ok and bound_ok and l_defect <= 1e-9,
        f"tau defect {worst_tau:.2e}, L(1) defect {l_defect:.2e}",
    )


def test_criterion_08_laurent_extraction():
    worst = 0.0
    for xi in (TRIVIAL, CHI5):
        a, b = laurent_at_1_two_widths(xi)
        worst = max(worst, abs(a.residue - b.residue), abs(a.c0 - b.c0), abs(a.c1 - b.c1))
    residue_defect = abs(laurent_at_1_two_widths(TRIVIAL)[1].residue - 1.0)

    coeffs = edge_coefficients(TRIVIAL)
    f = central_series_function(TRIVIAL)
    h = 0.01
    recon = coeffs.c_minus2 / h**2 + coeffs.c_minus1 / h + coeffs.c_zero
    direct = complex(f(-1.0 + h)).real
    recon_defect = abs(direct - recon) / abs(direct)
    coeffs5 = edge_coefficients(CHI5)
    f5 = central_series_function(CHI5)
    recon_defect = max(
        recon_defect,
        abs(coeffs5.c_minus2),
        abs(coeffs5.c_minus1),
        abs(coeffs5.c_zero - complex(f5(-1.0)).real),
    )
    _finish(
        8,
        "Laurent two-width agreement 1e-7, completed-zeta residue 1, edge reconstruction 1e-4",
        worst <= 1e-7 and residue_defect <= 1e-7 and recon_defect <= 1e-4,
        f"width agreement {worst:.2e}, residue defect {residue_defect:.2e}, reconstruction {recon_defect:.2e}",
    )


def test_criterion_09_geometric_kernels():
    arch_defect = abs(
        rtf.unipotent_orbit_factor({ARCH: 1.0 + 0.0j}, TRIVIAL) - (-math.pi / 8.0)
    )

    values = []
    for s in (0.5, 1.0, 2.0, 3.5):
        for a_spec in ({}, {2: 1}, {3: 2}):
            values.append(
                rtf.unipotent_orbit_constant(
                    {ARCH: complex(s), P(7): complex(s)}, L(a_spec), CHI5
                )
            )
    flat_defect = max(abs(v - values[0]) for v in values)
    from rtflab.oracles import completed_l

    flat_defect = max(flat_defect, abs(values[0] - completed_l(1.0, CHI5)))

    laurent1 = laurent_at_1(TRIVIAL)
    log_defect = 0.0
    s_map = {ARCH: 2.0 + 0.0j}
    for spec in ({2: 1}, {2: 3, 5: 1}, {3: 2}):
        n = L(spec)
        delta = rtf.unipotent_orbit_constant(s_map, n, TRIVIAL) - rtf.unipotent_orbit_constant(
            s_map, LevelIdeal.unit(), TRIVIAL
        )
        log_defect = max(
            log_defect, abs(delta - laurent1.residue * 0.5 * math.log(n.norm()))
        )
    _finish(
        9,
        "orbit kernels: -pi/8 at s=1, flat constant = L(1, eta), residue log growth",
        arch_defect <= 1e-12 and flat_defect <= 1e-10 and log_defect <= 1e-10,
        f"arch {arch_defect:.2e}, flat {flat_defect:.2e}, log {log_defect:.2e}",
    )


def test_criterion_10_distribution_and_check_suite(tmp_path, capsys):
    draws = inverse_cdf_sample(plancherel(2, 1), 100_000, seed=20240906)
    sample, _ = sample_from_rows([(1, 2, float(x), 1.0) for x in draws])
    path = tmp_path / "sample.csv"
    path.write_text(write_sample_csv(sample), encoding="utf-8")
    code = cli_main(
        ["compare", "--sample", str(path), "--measure", "mu_p", "--p", "2", "--sign", "1"]
    )
    out = capsys.readouterr().out
    ks = json.loads(out)["ks_distance"]

    t0 = time.perf_counter()
    results = run_all_checks()
    elapsed = time.perf_counter() - t0
    all_pass = all(r.passed for r in results)
    _finish(
        10,
        "inverse-CDF sample through `compare` (KS < 0.01); full check suite green in < 60 s",
        code == 0 and ks < 0.01 and all_pass and elapsed < 60.0,
        f"KS {ks:.4f}, {len(results)} checks in {elapsed:.1f} s",
    )
