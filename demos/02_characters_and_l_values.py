"""Characters, Gauss sums and L-values.

Enumerates the even square-conductor census of a few levels, checks the
modulus of Gauss sums against sqrt(m), reads L(1, chi) off the Laurent
constant c0 = Lambda(1, chi) = sqrt(m) L(1, chi) against the golden-ratio
closed form, and extracts the Laurent data of the completed zeta function at
its pole.
"""

import math

from rtflab.characters import (
    DirichletCharacter,
    enumerate_xi,
    gauss_sum,
)
from rtflab.fields import LevelIdeal
from rtflab.lfunctions import edge_coefficients, laurent_at_1
from rtflab.special import EULER_GAMMA

print("== census of even characters with conductor squared dividing the level ==")
for n_int in (1, 25, 49, 144, 400):
    n = LevelIdeal.from_integer(n_int)
    chars = enumerate_xi(n)
    listing = ", ".join(f"cond {c.modulus} (order {c.order()})" for c in chars)
    print(f"n = {n_int:4d}: {len(chars)} characters  [{listing}]")

print("\n== Gauss sums of primitive quadratic characters ==")
for m in (5, 8, 12, 13, 17):
    try:
        chi = DirichletCharacter.quadratic(m)
    except ValueError:
        continue
    tau = gauss_sum(chi)
    print(f"m = {m:3d}: tau = {tau.real:+.6f} {tau.imag:+.6f}i   |tau| - sqrt(m) = {abs(tau) - math.sqrt(m):+.2e}")

print("\n== L(1, chi_5) three ways ==")
chi5 = DirichletCharacter.quadratic(5)
laurent_route = laurent_at_1(chi5).c0 / math.sqrt(5.0)
golden = 2.0 / math.sqrt(5.0) * math.log((1.0 + math.sqrt(5.0)) / 2.0)
series = sum(chi5.value(n).real / n for n in range(1, 200_001))
print(f"Laurent c0/sqrt5: {laurent_route:.12f}")
print(f"closed form     : {golden:.12f}")
print(f"truncated series: {series:.12f}  (2e5 terms, no acceleration)")

print("\n== Laurent data of the completed zeta at s = 1 ==")
data = laurent_at_1(DirichletCharacter.trivial())
print(f"residue = {data.residue:+.12f}")
print(f"c0      = {data.c0:+.12f}   [(gamma - log 4 pi)/2 = {(EULER_GAMMA - math.log(4 * math.pi)) / 2:+.12f}]")
print(f"c1      = {data.c1:+.12f}")

print("\n== edge coefficients of the central-value series ==")
for tag, chi in (("trivial", DirichletCharacter.trivial()), ("quadratic mod 5", chi5)):
    c = edge_coefficients(chi)
    print(f"{tag:16s}: c_-2 = {c.c_minus2:+.9f}, c_-1 = {c.c_minus1:+.9f}, c_0 = {c.c_zero:+.9f}")
print(f"(the trivial leading coefficient is 4/zeta_hat(2) = 24/pi = {24 / math.pi:.9f})")
