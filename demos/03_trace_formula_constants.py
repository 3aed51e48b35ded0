"""The explicit constants of the moment identity.

Level constants across exponent patterns, spectral weights across the three
local shapes, the four spectral edge constants for the trivial and a
quadratic character, and samples of the orbit-side kernels.
"""

import math

from rtflab.characters import DirichletCharacter
from rtflab.fields import LevelIdeal, RATIONALS
from rtflab.local_factors import HigherConductor, Special, Spherical, r_weight
from rtflab import rtf_constants as rtf

P = RATIONALS.place_for_prime
ARCH = RATIONALS.archimedean_places[0]

print("== level constants ==")
for n_int in (30, 4, 8, 72, 3600):
    n = LevelIdeal.from_integer(n_int)
    print(f"C({n_int:5d}) = {rtf.level_constant(n):.10f}   ({n})")

print("\n== spectral weights r(rep, sign, k) at q = 2 ==")
reps = {
    "spherical alpha=1": Spherical(1.0),
    "special sign -1  ": Special(-1),
    "conductor c >= 2 ": HigherConductor(2),
}
print("k:          " + "".join(f"{k:>9d}" for k in range(6)))
for tag, data in reps.items():
    for sign in (1, -1):
        row = [r_weight(P(2), data, sign, k) for k in range(6)]
        print(f"{tag} sign {sign:+d}: " + "".join(f"{v:9.4f}" for v in row))

print("\n== spectral edge constants ==")
for tag, chi in (("trivial", DirichletCharacter.trivial()), ("quad mod 5", DirichletCharacter.quadratic(5))):
    for n_int in (1, 4, 12):
        n = LevelIdeal.from_integer(n_int)
        ys = rtf.spectral_edge_constants(n, chi)
        body = ", ".join(f"Y_{j} = {v:+.6f}" for j, v in ys.items())
        print(f"{tag:10s} n = {n_int:3d}: {body}")

print("\n== orbit-side kernels ==")
print(f"archimedean factor at s=1: {rtf.unipotent_orbit_factor({ARCH: 1.0 + 0j}, DirichletCharacter.trivial()).real:+.12f}"
      f"   (-pi/8 = {-math.pi / 8:.12f})")
chi5 = DirichletCharacter.quadratic(5)
for s in (0.5, 2.0, 5.0):
    v = rtf.unipotent_orbit_constant({ARCH: complex(s), P(7): complex(s)}, LevelIdeal.from_integer(8), chi5)
    print(f"orbit constant (quad mod 5) at s={s}: {v.real:+.12f}  (flat: equals completed L(1))")
for n_int in (1, 4, 64):
    n = LevelIdeal.from_integer(n_int)
    v = rtf.unipotent_orbit_constant({ARCH: 2.0 + 0j}, n, DirichletCharacter.trivial())
    print(f"orbit constant (trivial) at a = {n_int:3d}: {v.real:+.10f}"
          f"   [grows by (1/2) log N: {0.5 * math.log(max(n_int, 1)):.10f}]")

print("\n== index of the congruence subgroup and adjoint norm factor ==")
from rtflab.fields import index_k0
from rtflab.local_factors import adjoint_norm_factor

for n_int in (1, 5, 25, 12):
    n = LevelIdeal.from_integer(n_int)
    print(f"[K : K0({n_int:3d})] = {index_k0(n)}   norm factor (L=1): {adjoint_norm_factor(n, 1.0):.6f}")
