"""Dirichlet characters over Q, quadratic sign profiles, Gauss sums.

Characters are stored as exponent vectors on a fixed generating set of the
unit group modulo m (CRT components; primitive roots at odd prime powers,
{-1, 5} at 2-powers).  Every character value is carried as an exact integer
phase k modulo the group exponent L (the lcm of the generator orders), with
chi(a) = exp(2 pi i k / L), the encoding of Conrey labels.  Primitivity,
parity and conductor tests are integer comparisons; `phase` converts to a
`Fraction` at its boundary and floating complex values appear only in the
value accessors.

The characters mod m form the grid of exponent vectors over the generators,
which is also the discrete-log grid of the units.  Per-modulus work runs on
that grid: primitivity is an outer AND of one mask per generator axis
(`primitive_axes`), parity is one integer vector (`parity_vector`), the
census lists the even primitive rows of each conductor straight from those
(`enumerate_xi`), and the Gauss sums of every character mod m are one
inverse FFT of the additive kernel laid out on the grid
(`gauss_sums_for_modulus`).

`brute_force_phase_tables` is an independent cross-check enumerator: it
knows nothing about primitive roots or CRT and builds every homomorphism of
the unit group by subgroup extension, in integers modulo phi(m).  Tests and
the self-check suite compare the two routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import RamifiedOverlapError
from .fields import FinitePlace, LevelIdeal, Place, RATIONALS, FieldProfile, factorize
from .special import digamma

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the array functions only (`_phase_logs`, `phases`,
# `phase_matrix`, `conductor_by_divisor_test`, `gauss_sums_for_modulus`,
# `brute_force_phase_tables`), so the scalar paths load without it.  The grid
# helpers `primitive_axes` and `parity_vector` are plain integers, so
# `enumerate_xi` (and `rtflab characters`) runs without numpy too.


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


@dataclass(frozen=True)
class _UnitGroup:
    """Generators, orders and discrete-log tables of (Z/m)^x.

    ``meta`` records, per generator, the prime-power component it came from
    and its role: "odd" (primitive root at an odd prime power), "m4" (the
    order-2 generator mod 4), "neg"/"five" (the pair at 2-powers >= 8).
    ``exponent`` is the lcm of the orders, the modulus of integer phases.
    """

    modulus: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    log_table: Mapping[int, tuple[int, ...]]
    meta: tuple[tuple[int, int, str], ...] = ()
    exponent: int = 1

    @property
    def size(self) -> int:
        out = 1
        for n in self.orders:
            out *= n
        return out


@lru_cache(maxsize=4096)
def unit_group(m: int) -> _UnitGroup:
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return _UnitGroup(1, (), (), {0: ()}, ())
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
    # Discrete logs by joint enumeration of all exponent tuples.
    table: dict[int, tuple[int, ...]] = {}
    exps = [0] * len(gens)
    values = [1] * (len(gens) + 1)

    def rec(i: int, acc: int) -> None:
        if i == len(gens):
            table[acc] = tuple(exps)
            return
        x = acc
        for e in range(orders[i]):
            exps[i] = e
            rec(i + 1, x)
            x = x * gens[i] % m
        exps[i] = 0

    rec(0, 1)
    return _UnitGroup(
        m, tuple(gens), tuple(orders), table, tuple(meta), math.lcm(1, *orders)
    )


@lru_cache(maxsize=512)
def _phase_logs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Discrete logs of every residue mod m scaled to the group exponent.

    Row a holds x_i * (L / n_i) for a unit a = prod g_i**x_i, so a character
    with exponents e has integer phase (row @ e) % L there; rows of
    non-units are -1.  Also returns the boolean unit mask.  Built on first
    use only: it costs O(m) memory, which the single-residue path
    `DirichletCharacter.phase_index` avoids.
    """
    import numpy as np

    g = unit_group(m)
    logs = np.full((m, len(g.orders)), -1, dtype=np.int64)
    units = np.zeros(m, dtype=bool)
    scale = np.array([g.exponent // n for n in g.orders], dtype=np.int64)
    residues = np.fromiter(g.log_table, dtype=np.int64, count=len(g.log_table))
    x = np.array(list(g.log_table.values()), dtype=np.int64).reshape(len(residues), len(scale))
    logs[residues] = x * scale
    units[residues] = True
    logs.flags.writeable = False
    units.flags.writeable = False
    return logs, units


# ---------------------------------------------------------------------------
# Dirichlet characters


def _unit_root(k: int, L: int) -> complex:
    """e^{2 pi i k / L} in floating point."""
    r = k / L
    return complex(math.cos(2 * math.pi * r), math.sin(2 * math.pi * r))


@dataclass(frozen=True)
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
        parities exist and the even one is returned.
        """
        candidates = [
            chi
            for chi in enumerate_character_group(m)
            if chi.order() == 2 and chi.is_primitive()
        ]
        for chi in candidates:
            if chi.is_even():
                return chi
        if candidates:
            return candidates[0]
        raise ValueError(f"no primitive quadratic character of conductor {m}")

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> DirichletCharacter:
        return cls(int(doc["modulus"]), tuple(int(e) for e in doc["exponents"]))

    def to_json_dict(self) -> dict:
        return {"modulus": self.modulus, "exponents": list(self.exponents)}

    # -- exact values --------------------------------------------------------

    def phase_index(self, a: int) -> int | None:
        """Integer phase k with chi(a) = e^{2 pi i k / L}, L the group exponent.

        None when gcd(a, m) > 1.  Reads one discrete log, so it costs
        O(number of generators) at any modulus.
        """
        g = unit_group(self.modulus)
        logs = g.log_table.get(a % self.modulus)
        if logs is None:
            return None
        L = g.exponent
        return sum(e * x * (L // n) for e, x, n in zip(self.exponents, logs, g.orders)) % L

    def phases(self) -> np.ndarray:
        """Integer phases k_0, ..., k_{m-1} (see `phase_index`); -1 off the units."""
        import numpy as np

        logs, units = _phase_logs(self.modulus)
        L = unit_group(self.modulus).exponent
        return np.where(units, logs @ np.array(self.exponents, dtype=np.int64) % L, -1)

    def phase(self, a: int) -> Fraction | None:
        """Exact phase r with chi(a) = e^{2 pi i r}; None when gcd(a, m) > 1."""
        k = self.phase_index(a)
        if k is None:
            return None
        return Fraction(k, unit_group(self.modulus).exponent)

    def value(self, a: int) -> complex:
        k = self.phase_index(a)
        if k is None:
            return 0.0 + 0.0j
        return _unit_root(k, unit_group(self.modulus).exponent)

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

    def is_real(self) -> bool:
        return self.order() <= 2

    def conductor(self) -> int:
        """Conductor from the component orders (exact, no value scan).

        At an odd prime power the conductor exponent is v_p(order) + 1 for a
        nontrivial component; at 2-powers the pair {-1, 5} contributes 2 or
        v_2(order on 5) + 2.  Cross-checked against the divisor-test variant;
        `primitive_axes` (below) is its per-axis form on the whole grid.
        """
        g = unit_group(self.modulus)
        if self.modulus == 1:
            return 1
        by_prime: dict[int, int] = {}
        two_neg_odd = False
        two_five_exp = 0
        for e, n, (p, a, kind) in zip(self.exponents, g.orders, g.meta):
            if kind == "odd":
                if e % n == 0:
                    continue
                d = n // math.gcd(e, n)
                t = 0
                while d % p == 0:
                    d //= p
                    t += 1
                by_prime[p] = max(by_prime.get(p, 0), t + 1)
            elif kind == "m4":
                if e % 2 == 1:
                    by_prime[2] = max(by_prime.get(2, 0), 2)
            elif kind == "neg":
                two_neg_odd = e % 2 == 1
            elif kind == "five":
                if e % n != 0:
                    d = n // math.gcd(e, n)
                    two_five_exp = d.bit_length() + 1  # v_2(d) + 2 for d a 2-power
        if two_five_exp:
            by_prime[2] = max(by_prime.get(2, 0), two_five_exp)
        elif two_neg_odd:
            by_prime[2] = max(by_prime.get(2, 0), 2)
        out = 1
        for p, f in by_prime.items():
            out *= p**f
        return out

    def conductor_by_divisor_test(self) -> int:
        """Smallest d | m with chi trivial on residues ≡ 1 (mod d); slow dual route."""
        import numpy as np

        m = self.modulus
        if m == 1:
            return 1
        k = self.phases()
        for d in sorted(d for d in range(1, m + 1) if m % d == 0):
            along = k[np.arange(1, m + 1, d) % m]
            if np.all(along[along >= 0] == 0):
                return d
        return m

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus

    def primitive_character(self) -> DirichletCharacter:
        """The primitive character inducing this one."""
        f = self.conductor()
        if f == self.modulus:
            return self
        gf = unit_group(f)
        L = unit_group(self.modulus).exponent
        exps = []
        for gen, n in zip(gf.generators, gf.orders):
            # Lift gen to a residue coprime to the full modulus.
            a = gen
            while math.gcd(a, self.modulus) != 1:
                a += f
            k = self.phase_index(a)
            assert k is not None
            # chi(a) = e^{2 pi i k / L} must be an n-th root of unity e^{2 pi i e / n}.
            if k * n % L != 0:
                raise ArithmeticError("inconsistent phase when reducing to conductor")
            exps.append(k * n // L % n)
        return DirichletCharacter(f, tuple(exps))

    def __mul__(self, other: DirichletCharacter) -> DirichletCharacter:
        if other.modulus != self.modulus:
            raise ValueError("characters must share a modulus to be multiplied")
        return DirichletCharacter(
            self.modulus,
            tuple(a + b for a, b in zip(self.exponents, other.exponents)),
        )

    def conjugate(self) -> DirichletCharacter:
        return DirichletCharacter(self.modulus, tuple(-e for e in self.exponents))

    def square(self) -> DirichletCharacter:
        return self * self

    def __str__(self) -> str:
        return f"chi_{self.modulus}{list(self.exponents)}"


# ---------------------------------------------------------------------------
# the character grid: exponent vectors over the generators of unit_group(m)


@lru_cache(maxsize=4096)
def primitive_axes(m: int) -> tuple[tuple[bool, ...], ...] | None:
    """Per generator axis of `unit_group(m)`, the exponents that keep chi primitive.

    chi_e mod m is primitive exactly when every axis allows its e_i, so the
    primitive characters are the outer AND of these masks.  This is the
    per-axis form of `DirichletCharacter.conductor`: at an odd p**a the
    component keeps conductor exponent a when p does not divide e (a >= 2)
    or e != 0 (a = 1); the "m4" and "five" axes need e odd, and the "neg"
    axis allows every value once "five" is odd.  None when m ≡ 2 (mod 4),
    which has no primitive character.
    """
    if m % 4 == 2:
        return None
    g = unit_group(m)
    axes = []
    for n, (p, a, kind) in zip(g.orders, g.meta):
        if kind == "odd":
            axes.append(tuple(e % p != 0 if a >= 2 else e != 0 for e in range(n)))
        elif kind == "neg":
            axes.append((True,) * n)
        else:  # "m4", "five"
            axes.append(tuple(e % 2 == 1 for e in range(n)))
    return tuple(axes)


@lru_cache(maxsize=4096)
def parity_vector(m: int) -> tuple[int, ...]:
    """log(m - 1) * L / n: chi_e(-1) has integer phase (e @ vector) % L.

    chi_e is even exactly when that phase is 0 (L the group exponent).
    """
    g = unit_group(m)
    logs = g.log_table[(m - 1) % m]
    return tuple(x * (g.exponent // n) for x, n in zip(logs, g.orders))


def phase_matrix(m: int, exponents: np.ndarray, residues: np.ndarray) -> np.ndarray:
    """Integer phases mod L of many characters mod m at many units at once.

    ``exponents`` has one exponent row per character and ``residues`` are
    units mod m; entry (i, j) is the phase of character j at residues[i],
    the value `DirichletCharacter.phases` gives one character at a time.
    """
    logs, _ = _phase_logs(m)
    return logs[residues % m] @ exponents.T % unit_group(m).exponent


def enumerate_character_group(m: int) -> list[DirichletCharacter]:
    """Every character modulo m, in lexicographic exponent order."""
    g = unit_group(m)
    chars = []
    exps = [0] * len(g.orders)

    def rec(i: int) -> None:
        if i == len(g.orders):
            chars.append(DirichletCharacter(m, tuple(exps)))
            return
        for e in range(g.orders[i]):
            exps[i] = e
            rec(i + 1)
        exps[i] = 0

    rec(0)
    return chars


# ---------------------------------------------------------------------------
# Gauss sums


@dataclass(frozen=True)
class GaussSumValue:
    """The classical character sum tau(chi) together with its modulus."""

    value: complex
    modulus: int


def gauss_sum(chi: DirichletCharacter) -> GaussSumValue:
    """tau(chi) = sum_a chi(a) e^{2 pi i a / m}; requires chi primitive.

    One character at a time in O(m) scalar steps over `phase_index`, a route
    independent of the grid FFT of `gauss_sums_for_modulus`.
    """
    if not chi.is_primitive():
        raise ValueError("gauss_sum requires a primitive character")
    m = chi.modulus
    if m == 1:
        return GaussSumValue(1.0 + 0.0j, 1)
    L = unit_group(m).exponent
    tau = 0.0 + 0.0j
    for a in range(1, m):
        k = chi.phase_index(a)
        if k is not None:
            tau += _unit_root(k, L) * _unit_root(a, m)
    return GaussSumValue(tau, m)


def adelic_gauss_sum(chi: DirichletCharacter) -> complex:
    """The adelically normalized Gauss sum tau(chi) / sqrt(m) (modulus one).

    The classical tau and this normalized variant are both exposed; the two
    differ by the m**(1/2) volume normalization and agree in modulus only.
    """
    g = gauss_sum(chi)
    return g.value / math.sqrt(g.modulus)


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
    residues = np.ones((), dtype=np.int64)
    for gen, n, axis in zip(g.generators, g.orders, axes):
        primitive = primitive[..., None] & np.array(axis)
        residues = residues[..., None] * np.array([pow(gen, x, m) for x in range(n)]) % m
    kernel = np.exp(2j * np.pi * residues / m)
    taus = (np.fft.ifftn(kernel) * kernel.size)[primitive]
    rows = np.argwhere(primitive).tolist()
    return [(tuple(e), complex(t)) for e, t in zip(rows, taus)]


# ---------------------------------------------------------------------------
# the level census


def enumerate_xi(n: LevelIdeal | int, profile: FieldProfile = RATIONALS) -> list[DirichletCharacter]:
    """All even primitive characters whose conductor squared divides the level.

    Rational profile only.  The trivial character (conductor 1) is always in
    the list; entries are sorted by (conductor, exponents).  Each conductor
    contributes the product of its primitive axes (`primitive_axes`), in
    lexicographic order, less the rows that `parity_vector` finds odd; no
    other character of the group is built.
    """
    if not profile.is_rationals:
        raise ValueError("character enumeration is implemented over Q only")
    if isinstance(n, int):
        n = LevelIdeal.from_integer(n, profile)
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


def character_census(n: LevelIdeal | int, profile: FieldProfile = RATIONALS) -> int:
    """|Xi(n)| — the number of even characters with conductor squared dividing n."""
    return len(enumerate_xi(n, profile))


def census_proof_bound(n: LevelIdeal) -> float:
    """N(n)**(1/2) times the number of square divisors (class number one)."""
    return math.sqrt(n.norm()) * len(n.square_divisor_conductors())


# ---------------------------------------------------------------------------
# L(1, chi) by the digamma formula


def l_one(chi: DirichletCharacter) -> float | complex:
    """Finite-part L(1, chi) = -(1/m) sum_a chi(a) psi(a/m) for nontrivial even chi."""
    if chi.order() == 1:
        raise ValueError("L(1) of the trivial character is a pole")
    m = chi.modulus
    L = unit_group(m).exponent
    acc = 0.0 + 0.0j
    for a, k in enumerate(chi.phases().tolist()):
        if k < 0:
            continue
        acc += _unit_root(k, L) * complex(digamma(a / m))
    acc = -acc / m
    if abs(acc.imag) < 1e-12 * max(1.0, abs(acc.real)):
        return acc.real
    return acc


def l_one_completed(chi: DirichletCharacter) -> float | complex:
    """Completed L(1, chi) = sqrt(m) * L_fin(1, chi) for even primitive chi."""
    if not (chi.is_even() and chi.is_primitive()):
        raise ValueError("completed L(1) accessor expects an even primitive character")
    return math.sqrt(chi.modulus) * l_one(chi)


# ---------------------------------------------------------------------------
# quadratic sign profiles


@dataclass(frozen=True)
class QuadraticCharacterProfile:
    """A quadratic character seen through its local data.

    ``signs`` lists values at uniformizers for places outside the conductor
    support.  For profiles built from a concrete quadratic character over Q,
    unlisted places fall back to the character value at the prime.  The
    trivial profile answers +1 everywhere.
    """

    conductor: LevelIdeal
    signs: tuple[tuple[FinitePlace, int], ...] = ()
    archimedean_trivial: bool = True
    dirichlet: DirichletCharacter | None = None
    all_plus: bool = False

    def __post_init__(self) -> None:
        conductor_support = set(self.conductor.support())
        for place, s in self.signs:
            if s not in (1, -1):
                raise ValueError("unramified signs must be +1 or -1")
            if place in conductor_support:
                raise ValueError(
                    f"sign listed at ramified place {place.label}"
                )
        if not self.archimedean_trivial:
            raise ValueError("archimedean components must be trivial")

    @classmethod
    def trivial(cls) -> QuadraticCharacterProfile:
        return cls(conductor=LevelIdeal.unit(), all_plus=True)

    @classmethod
    def from_signs(
        cls, signs: Mapping[FinitePlace, int], conductor: LevelIdeal | None = None
    ) -> QuadraticCharacterProfile:
        return cls(
            conductor=conductor or LevelIdeal.unit(),
            signs=tuple(sorted(signs.items(), key=lambda t: (t[0].q, t[0].label))),
        )

    @classmethod
    def from_dirichlet(cls, chi: DirichletCharacter, profile: FieldProfile = RATIONALS) -> QuadraticCharacterProfile:
        if not (chi.order() <= 2 and chi.is_even() and chi.is_primitive()):
            raise ValueError("profile requires an even primitive quadratic (or trivial) character")
        return cls(
            conductor=LevelIdeal.from_integer(chi.modulus, profile),
            dirichlet=chi,
            all_plus=chi.order() == 1,
        )

    def is_trivial(self) -> bool:
        if self.dirichlet is not None:
            return self.dirichlet.order() == 1
        return self.all_plus and self.conductor.is_unit() and not self.signs

    def sign_at(self, place: FinitePlace) -> int:
        if self.conductor.ord_at(place) > 0:
            raise RamifiedOverlapError(
                f"character is ramified at {place.label}"
            )
        for p, s in self.signs:
            if p == place:
                return s
        if self.dirichlet is not None:
            k = self.dirichlet.phase_index(place.q)
            if k is None:
                raise RamifiedOverlapError(
                    f"character is ramified at {place.label}"
                )
            return 1 if k == 0 else -1
        if self.all_plus:
            return 1
        raise KeyError(f"no sign recorded at place {place.label}")

    def value_on_ideal(self, n: LevelIdeal) -> int:
        """Product of local signs raised to the exponents of n."""
        out = 1
        for place, e in n.factors:
            out *= self.sign_at(place) ** e
        return out


def eta_tilde(eta: QuadraticCharacterProfile, n: LevelIdeal) -> int:
    """Sign of the quadratic character on the ideal n ( ±1 )."""
    return eta.value_on_ideal(n)


def is_admissible_level(
    n: LevelIdeal,
    s_places: Iterable[Place],
    eta: QuadraticCharacterProfile,
) -> bool:
    """The three admissibility conditions for a level against (S, eta).

    (1) the level support avoids both S and the conductor of eta,
    (2) every local sign of eta on the level support is -1,
    (3) the global sign of eta on the level is +1.
    """
    s_finite = {p for p in s_places if isinstance(p, FinitePlace)}
    support = set(n.support())
    conductor_support = set(eta.conductor.support())
    if support & conductor_support or support & s_finite:
        return False
    if any(eta.sign_at(p) != -1 for p in support):
        return False
    return eta.value_on_ideal(n) == 1


# ---------------------------------------------------------------------------
# independent brute-force enumeration (cross-check oracle)


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
    Cross-check oracle.
    """
    import numpy as np

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


def brute_force_character_table(m: int) -> list[dict[int, Fraction]]:
    """`brute_force_phase_tables` as one dict per character, of exact phases
    r = k / phi(m) in [0, 1) keyed by residue in domain order."""
    N, units, phases = brute_force_phase_tables(m)
    return [{a: Fraction(k, N) for a, k in zip(units, row)} for row in phases.tolist()]


def brute_force_conductor(table: Mapping[int, Fraction | int], m: int) -> int:
    """Conductor of a brute-force phase table (either form) by the divisor test."""
    if m == 1:
        return 1
    for d in sorted(x for x in range(1, m + 1) if m % x == 0):
        if all(
            table.get(a, None) == 0
            for a in range(1, m + 1, d)
            if math.gcd(a, m) == 1
        ):
            return d
    return m


def brute_force_is_even(table: Mapping[int, Fraction | int], m: int) -> bool:
    if m <= 2:
        return True
    return table[m - 1] == 0
