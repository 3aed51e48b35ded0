"""Spectral measures at a glance.

Tabulates the semicircle density and the per-prime densities for both signs,
confirms the closed-form masses by quadrature, and walks through the
change-of-variables identity between the finite-place spectral density and
the per-prime density, including the factor-2 trap one falls into by
treating the spectral window as a full angle sweep.
"""


from rtflab.fields import RATIONALS
from rtflab.measures import (
    dx_dy_abs,
    local_spectral,
    plancherel,
    plancherel_mass_closed_form,
    pushforward_check,
    pushforward_fullwindow_factor,
    sato_tate,
    satake_x_of_y,
)

print("== densities on [-2, 2] ==")
xs = [-2.0, -1.0, 0.0, 1.0, 2.0]
header = "x".rjust(6) + "".join(f"{t:>14}" for t in ("mu_ST", "mu_2^+", "mu_2^-", "mu_5^+"))
print(header)
densities = [sato_tate(), plancherel(2, 1), plancherel(2, -1), plancherel(5, 1)]
for x in xs:
    row = [density(x) for density in densities]
    print(f"{x:6.1f}" + "".join(f"{v:14.6f}" for v in row))

print("\n== masses (adaptive quadrature vs closed form) ==")
res = sato_tate().mass(1e-11)
print(f"semicircle: {res.value:.12f}  (error estimate {res.error_estimate:.1e})")
for p in (2, 3, 5, 7, 11):
    for sign in (1, -1):
        got = plancherel(p, sign).mass(1e-10).value
        closed = plancherel_mass_closed_form(p, sign)
        print(f"mu_{p}^{'+' if sign == 1 else '-'}: quadrature {got:.12f}   closed form {closed:.12f}")

print("\n== change of variables x = 2 cos(y log q / 2) ==")
q = 2
place = RATIONALS.place_for_prime(q)
lam, mu = local_spectral(place, 1), plancherel(q, 1)
window = lam.hi  # 2 pi / log q
print(f"window at q={q}: [0, {window:.6f}]  (maps once onto [-2, 2])")
for frac in (0.25, 0.5, 0.75):
    y = frac * window
    x = satake_x_of_y(y, q)
    lhs = lam(y)
    rhs = mu(x) * dx_dy_abs(y, q)
    print(f"y = {y:8.4f} -> x = {x:+.4f}: lambda(y) = {lhs:.10f}, mu(x)|dx/dy| = {rhs:.10f}")

print("\nmax pointwise defect on 1000-point half-window grids:")
for q in (2, 3, 5):
    for sign in (1, -1):
        d = pushforward_check(RATIONALS.place_for_prime(q), sign, 1000)
        print(f"  q={q}, sign={sign:+d}: {d:.2e}")

print("\nnegative control: drop the angle halving and the transported density")
print("overshoots by exactly a factor of two, uniformly on the window:")
lo, hi = pushforward_fullwindow_factor(place, 1, 1000)
print(f"  observed ratio range at q=2, sign=+1: [{lo:.12f}, {hi:.12f}]")
