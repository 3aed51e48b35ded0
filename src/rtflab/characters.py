"""Dirichlet characters over Q, their Gauss sums and the level census.

Characters are stored as exponent vectors on a fixed generating set of the
unit group modulo m (CRT components; primitive roots at odd prime powers,
{-1, 5} at 2-powers).  Every character value is carried as an exact integer
phase k modulo the group exponent L (the lcm of the generator orders), with
chi(a) = exp(2 pi i k / L), the encoding of Conrey labels.  Primitivity,
parity and conductor tests are integer comparisons, and floating complex
values appear only in the value accessors.  The sign character eta of the
moment identity is its `DirichletCharacter`: `sign_at` reads eta(q) = +-1
at a place and `value_on_ideal` its product over a level.

The characters mod m form the grid of exponent vectors over the generators,
which is also the discrete-log grid of the units.  `unit_group` walks that
grid once, in lexicographic exponent order, and every other grid in this
module is that walk: `gauss_sums_for_modulus` reshapes the same residues.
One rule gives the conductor exponent of each component
(`axis_conductor_exponents`); `DirichletCharacter.conductor` takes its maximum per prime and
`primitive_axes` reads one primitivity mask per axis off it, so primitivity
on the grid is an outer AND of those masks.  Parity is one integer vector
(`parity_vector`), the census lists the even primitive rows of each
conductor straight from those (`enumerate_xi`), and the Gauss sums of every
character mod m are one inverse FFT of the additive kernel laid out on the
grid.

The independent routes the check suite and the tests compare with these
(the subgroup-extension enumerator, the divisor-test conductor) are in
:mod:`rtflab.oracles`.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Iterable

from ._record import record
from .errors import RamifiedOverlapError
from .fields import FinitePlace, LevelIdeal, Place, factorize

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the array functions only (`phase_matrix`,
# `gauss_sums_for_modulus`), so the scalar paths load without it.  The grid
# helpers `axis_conductor_exponents`, `primitive_axes` and `parity_vector`
# are plain integers, so `enumerate_xi` (and `rtflab characters`) runs
# without numpy too.


# ---------------------------------------------------------------------------
# unit-group structure


def _primitive_root(q: int, phi: int) -> int:
    prime_factors = {p for p, _ in factorize(phi)}
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, phi // p, q) != 1 for p in prime_factors):
            return g
    raise ArithmeticError(f"no primitive root modulo {q}")


@record
class _UnitGroup:
    """Generators, orders and discrete-log tables of (Z/m)^x.

    ``meta`` records, per generator, the prime-power component it came from
    and its role: "odd" (primitive root at an odd prime power), "m4" (the
    order-2 generator mod 4), "neg"/"five" (the pair at 2-powers >= 8).
    ``exponent`` is the lcm of the orders, the modulus of integer phases.

    The discrete-log table is two flat int64 arrays.  ``residues`` lists
    the units prod g_i**x_i in lexicographic order of x (the first axis
    varies slowest), so the grid index of x is its mixed-radix value over
    ``orders``.  ``grid_index`` has length m: the grid index of each unit,
    -1 at the non-units.  `log` decodes the exponent vector of one residue.
    """

    modulus: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    residues: array
    grid_index: array
    meta: tuple[tuple[int, int, str], ...] = ()
    exponent: int = 1

    @property
    def size(self) -> int:
        return len(self.residues)

    def log(self, a: int) -> tuple[int, ...] | None:
        """The exponent vector x with a = prod g_i**x_i mod m; None off the units."""
        i = self.grid_index[a % self.modulus]
        if i < 0:
            return None
        x = []
        for n in reversed(self.orders):
            i, r = divmod(i, n)
            x.append(r)
        return tuple(reversed(x))


@lru_cache(maxsize=4096)
def unit_group(m: int) -> _UnitGroup:
    if m < 1:
        raise ValueError("modulus must be positive")
    components: list[tuple[int, list[int], list[int], list[tuple[int, int, str]]]] = []
    for p, e in factorize(m):
        q = p**e
        if p == 2:
            if e == 1:
                components.append((q, [], [], []))
            elif e == 2:
                components.append((q, [3], [2], [(2, 2, "m4")]))
            else:
                components.append(
                    (q, [q - 1, 5], [2, q // 4], [(2, e, "neg"), (2, e, "five")])
                )
        else:
            phi = q // p * (p - 1)
            components.append((q, [_primitive_root(q, phi)], [phi], [(p, e, "odd")]))
    # CRT-lift each component generator to a global generator ≡ 1 elsewhere.
    gens: list[int] = []
    orders: list[int] = []
    meta: list[tuple[int, int, str]] = []
    for i, (q, gs, ns, ms) in enumerate(components):
        rest = m // q
        # x ≡ g (mod q), x ≡ 1 (mod m/q)
        inv_rest = pow(rest, -1, q)
        for g, n, mt in zip(gs, ns, ms):
            x = (1 + rest * ((g - 1) * inv_rest % q)) % m
            gens.append(x)
            orders.append(n)
            meta.append(mt)
    # The discrete-log grid: residues axis by axis with running products, in
    # lexicographic exponent order (the first axis varies slowest).
    residues = [1 % m]
    for gen, n in zip(gens, orders):
        powers = [1]
        for _ in range(n - 1):
            powers.append(powers[-1] * gen % m)
        residues = [r * x % m for r in residues for x in powers]
    grid_index = array("q", [-1]) * m
    for i, r in enumerate(residues):
        grid_index[r] = i
    return _UnitGroup(
        m, tuple(gens), tuple(orders), array("q", residues), grid_index, tuple(meta),
        math.lcm(1, *orders),
    )


# ---------------------------------------------------------------------------
# Dirichlet characters


def _unit_root(k: int, L: int) -> complex:
    """e^{2 pi i k / L} in floating point."""
    r = k / L
    return complex(math.cos(2 * math.pi * r), math.sin(2 * math.pi * r))


@record
class DirichletCharacter:
    """A character modulo m, stored as exponents on the canonical generators."""

    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        g = unit_group(self.modulus)
        if len(self.exponents) != len(g.orders):
            raise ValueError("exponent vector length does not match the unit group")
        object.__setattr__(
            self, "exponents", tuple(e % n for e, n in zip(self.exponents, g.orders))
        )

    # -- construction -------------------------------------------------------

    @classmethod
    def trivial(cls, m: int = 1) -> DirichletCharacter:
        return cls(m, tuple(0 for _ in unit_group(m).orders))

    @classmethod
    def quadratic(cls, m: int) -> DirichletCharacter:
        """A primitive real character mod m, preferring the even one.

        Unique for odd or fundamental-discriminant moduli; at m = 8 both
        parities exist and the even one is returned.  Only the primitive
        exponents with 2e ≡ 0 (mod n) on each axis are walked, in
        lexicographic order; the first even character of order 2 wins, else
        the first of order 2.
        """
        axes = primitive_axes(m)
        candidates = []
        if axes is not None:
            real = [
                [e for e, ok in enumerate(axis) if ok and 2 * e % n == 0]
                for n, axis in zip(unit_group(m).orders, axes)
            ]
            candidates = [chi for chi in (cls(m, e) for e in product(*real)) if chi.order() == 2]
        for chi in candidates:
            if chi.is_even():
                return chi
        if candidates:
            return candidates[0]
        raise ValueError(f"no primitive quadratic character of conductor {m}")

    # -- exact values --------------------------------------------------------

    def phase_index(self, a: int) -> int | None:
        """Integer phase k with chi(a) = e^{2 pi i k / L}, L the group exponent.

        None when gcd(a, m) > 1.  Reads one discrete log, so it costs
        O(number of generators) at any modulus.
        """
        g = unit_group(self.modulus)
        logs = g.log(a)
        if logs is None:
            return None
        L = g.exponent
        return sum(e * x * (L // n) for e, x, n in zip(self.exponents, logs, g.orders)) % L

    def value(self, a: int) -> complex:
        k = self.phase_index(a)
        if k is None:
            return 0.0 + 0.0j
        return _unit_root(k, unit_group(self.modulus).exponent)

    def sign_at(self, place: FinitePlace) -> int:
        """chi(q) as +1 or -1 at the place of norm q.

        `RamifiedOverlapError` where chi(q) = 0, `ValueError` where chi(q)
        is not real.
        """
        k = self.phase_index(place.q)
        if k is None:
            raise RamifiedOverlapError(f"character is ramified at {place.label}")
        if 2 * k % unit_group(self.modulus).exponent:
            raise ValueError(f"character value at {place.label} is not real")
        return 1 if k == 0 else -1

    def value_on_ideal(self, n: LevelIdeal) -> int:
        """Product of local signs raised to the exponents of n."""
        out = 1
        for place, e in n.factors:
            out *= self.sign_at(place) ** e
        return out

    # -- structure -----------------------------------------------------------

    def order(self) -> int:
        g = unit_group(self.modulus)
        out = 1
        for e, n in zip(self.exponents, g.orders):
            out = math.lcm(out, n // math.gcd(e, n))
        return out

    def is_even(self) -> bool:
        if self.modulus <= 2:
            return True
        return self.phase_index(self.modulus - 1) == 0

    def conductor(self) -> int:
        """prod p**f_p, f_p the largest `axis_conductor_exponents` entry of
        this character's exponents on the axes at p (exact, no value scan).

        Cross-checked against `oracles.conductor_by_divisor_test`.
        """
        meta = unit_group(self.modulus).meta
        by_prime: dict[int, int] = {}
        for e, axis, (p, _, _) in zip(self.exponents, axis_conductor_exponents(self.modulus), meta):
            by_prime[p] = max(by_prime.get(p, 0), axis[e])
        return math.prod(p**f for p, f in by_prime.items())

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus


# ---------------------------------------------------------------------------
# the character grid: exponent vectors over the generators of unit_group(m)


@lru_cache(maxsize=4096)
def axis_conductor_exponents(m: int) -> tuple[tuple[int, ...], ...]:
    """Per generator axis of `unit_group(m)`, the conductor exponent at the
    axis's prime p of the component g_i -> e(e_i / n_i), for every e_i.

    The one conductor rule: a component of order d = n / gcd(e, n) has
    exponent 0 when d = 1 and v_p(d) + 1 otherwise, except on the "five"
    axis at 2**a (a >= 3), where it is v_2(d) + 2.  So for e != 0 an odd
    p**a gives a - min(v_p(e), a - 1), the "m4" and "neg" axes give 2 and
    "five" gives a - v_2(e) >= 3.  A character's conductor exponent at p is
    the largest over p's axes (`DirichletCharacter.conductor`), so a
    nontrivial "five" component decides it over "neg".
    """
    g = unit_group(m)
    out = []
    for n, (p, _, kind) in zip(g.orders, g.meta):
        axis = []
        for e in range(n):
            d = n // math.gcd(e, n)
            f = 0
            if d > 1:
                f = 2 if kind == "five" else 1
                while d % p == 0:
                    d //= p
                    f += 1
            axis.append(f)
        out.append(tuple(axis))
    return tuple(out)


@lru_cache(maxsize=4096)
def primitive_axes(m: int) -> tuple[tuple[bool, ...], ...] | None:
    """Per generator axis of `unit_group(m)`, the exponents that keep chi primitive.

    chi_e mod m is primitive exactly when every axis allows its e_i, so the
    primitive characters are the outer AND of these masks.  An axis at p**a
    allows the e_i of conductor exponent a (`axis_conductor_exponents`),
    except the "neg" axis, which allows every value: "five" already reaches
    a.  None when m ≡ 2 (mod 4), which has no primitive character.
    """
    if m % 4 == 2:
        return None
    meta = unit_group(m).meta
    return tuple(
        tuple(kind == "neg" or f == a for f in axis)
        for axis, (_, a, kind) in zip(axis_conductor_exponents(m), meta)
    )


@lru_cache(maxsize=4096)
def parity_vector(m: int) -> tuple[int, ...]:
    """log(m - 1) * L / n: chi_e(-1) has integer phase (e @ vector) % L.

    chi_e is even exactly when that phase is 0 (L the group exponent).
    """
    g = unit_group(m)
    logs = g.log(m - 1)
    return tuple(x * (g.exponent // n) for x, n in zip(logs, g.orders))


def phase_matrix(m: int, exponents: np.ndarray, residues: np.ndarray) -> np.ndarray:
    """Integer phases mod L of many characters mod m at many units at once.

    ``exponents`` has one exponent row per character and ``residues`` are
    units mod m; entry (i, j) is the phase of character j at residues[i],
    the value `DirichletCharacter.phase_index` gives one residue at a time.
    The discrete logs are the mixed-radix digits of each unit's
    `unit_group` grid index, scaled to L / n_i.
    """
    import numpy as np

    g = unit_group(m)
    if not g.orders:  # m <= 2: only the trivial character
        return np.zeros((len(residues), len(exponents)), dtype=np.int64)
    index = np.frombuffer(g.grid_index, dtype=np.int64)[residues % m]
    logs = np.stack(np.unravel_index(index, g.orders), axis=1)
    scale = np.array([g.exponent // n for n in g.orders], dtype=np.int64)
    return logs * scale @ exponents.T % g.exponent


# ---------------------------------------------------------------------------
# Gauss sums


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum_a chi(a) e^{2 pi i a / m}; requires chi primitive.

    One character at a time in O(m) scalar steps over `phase_index`, a route
    independent of the grid FFT of `gauss_sums_for_modulus`.
    """
    if not chi.is_primitive():
        raise ValueError("gauss_sum requires a primitive character")
    m = chi.modulus
    if m == 1:
        return 1.0 + 0.0j
    L = unit_group(m).exponent
    tau = 0.0 + 0.0j
    for a in range(1, m):
        k = chi.phase_index(a)
        if k is not None:
            tau += _unit_root(k, L) * _unit_root(a, m)
    return tau


def gauss_sums_for_modulus(m: int) -> list[tuple[tuple[int, ...], complex]]:
    """Gauss sums of every primitive character mod m, in lexicographic order,
    each as (exponent vector, tau); ``DirichletCharacter(m, e)`` is the
    character of exponent vector e.

    tau(chi_e) = sum_x e(a(x)/m) e(<x, e/n>) over the discrete-log grid x of
    the units, a(x) = prod g_i**x_i; that is the n-dimensional inverse DFT
    of the additive kernel e(a/m) laid out on the grid, so one
    `np.fft.ifftn` gives tau for every character mod m, of which the
    primitive rows (`primitive_axes`) are kept.
    """
    import numpy as np

    if m == 1:
        return [((), 1.0 + 0.0j)]
    axes = primitive_axes(m)
    if axes is None:
        return []
    g = unit_group(m)
    primitive = np.ones((), dtype=bool)
    for axis in axes:
        primitive = primitive[..., None] & np.array(axis)
    residues = np.frombuffer(g.residues, dtype=np.int64).reshape(g.orders)
    kernel = np.exp(2j * np.pi * residues / m)
    taus = (np.fft.ifftn(kernel) * kernel.size)[primitive]
    rows = np.argwhere(primitive).tolist()
    return [(tuple(e), complex(t)) for e, t in zip(rows, taus)]


# ---------------------------------------------------------------------------
# the level census


def enumerate_xi(n: LevelIdeal | int) -> list[DirichletCharacter]:
    """All even primitive characters whose conductor squared divides the level.

    The trivial character (conductor 1) is always in the list; entries are
    sorted by (conductor, exponents).  Each conductor contributes the product
    of its primitive axes (`primitive_axes`), in lexicographic order, less the
    rows that `parity_vector` finds odd; no other character of the group is
    built.
    """
    if isinstance(n, int):
        n = LevelIdeal.from_integer(n)
    out: list[DirichletCharacter] = []
    for m in sorted(c.norm() for c in n.square_divisor_conductors()):
        axes = primitive_axes(m)
        if axes is None:
            continue
        sign, L = parity_vector(m), unit_group(m).exponent
        allowed = [[e for e, ok in enumerate(axis) if ok] for axis in axes]
        for e in product(*allowed):
            if sum(x * s for x, s in zip(e, sign)) % L == 0:
                out.append(DirichletCharacter(m, e))
    return out


def census_proof_bound(n: LevelIdeal) -> float:
    """N(n)**(1/2) times the number of square divisors (class number one)."""
    return math.sqrt(n.norm()) * len(n.square_divisor_conductors())


# ---------------------------------------------------------------------------
# admissible levels


def is_admissible_level(
    n: LevelIdeal,
    s_places: Iterable[Place],
    eta: DirichletCharacter,
) -> bool:
    """The three admissibility conditions for a level against (S, eta).

    (1) the level support avoids both S and the modulus of eta,
    (2) every local sign of eta on the level support is -1,
    (3) the global sign of eta on the level is +1.
    """
    s_finite = {p for p in s_places if isinstance(p, FinitePlace)}
    support = n.support()
    if any(p in s_finite or math.gcd(p.q, eta.modulus) > 1 for p in support):
        return False
    if any(eta.sign_at(p) != -1 for p in support):
        return False
    return eta.value_on_ideal(n) == 1
