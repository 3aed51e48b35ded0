"""Number-field scaffolding: places, profiles and factored ideals.

A totally real base field enters every formula in this library only through
its degree, the absolute value of its discriminant, and per-place data
(residue cardinality ``q`` and different exponent ``d``).  A
:class:`FieldProfile` records exactly that; no class groups or unit lattices
are ever computed.  The rational field has a built-in profile whose finite
places are created on demand, one per prime.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping

from ._record import record


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of ``n`` by trial division: ``(p, e)`` pairs with
    ``p`` ascending.  Empty for ``n < 2``."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=1024)
def _prime_power(q: int) -> tuple[int, int] | None:
    """``(p, e)`` with ``q = p**e``, or ``None`` when ``q`` is not a prime power
    >= 2.  Cached, so validating a place and then building it factorizes once."""
    factors = factorize(q)
    return factors[0] if len(factors) == 1 else None


@record(order=True)
class ArchimedeanPlace:
    """A real embedding of the base field, identified by its label."""

    label: str


@record(order=True)
class FinitePlace:
    """A finite place: opaque label, residue cardinality and different exponent."""

    label: str
    q: int
    d: int = 0

    def __post_init__(self) -> None:
        if _prime_power(self.q) is None:
            raise ValueError(f"residue cardinality {self.q} is not a prime power >= 2")
        if self.d < 0:
            raise ValueError("different exponent must be >= 0")


Place = ArchimedeanPlace | FinitePlace


@record
class FieldProfile:
    """Degree, discriminant and per-place data of a totally real field.

    Degree 1 is Q: its discriminant is 1 and its finite places are made on
    demand by `place_for_prime`, so it lists none.
    """

    degree: int
    discriminant_abs: int
    archimedean_places: tuple[ArchimedeanPlace, ...]
    finite_places: tuple[FinitePlace, ...] = ()

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.discriminant_abs < 1:
            raise ValueError("absolute discriminant must be >= 1")
        if self.is_rationals and (self.discriminant_abs != 1 or self.finite_places):
            raise ValueError("a degree-1 profile is Q: discriminant 1 and no places")
        labels = [p.label for p in self.finite_places]
        if len(labels) != len(set(labels)):
            raise ValueError("finite place labels must be unique")

    def place(self, label: str) -> FinitePlace:
        for p in self.finite_places:
            if p.label == label:
                return p
        if self.is_rationals and label.startswith("p"):
            prime = int(label[1:])
            return self.place_for_prime(prime)
        raise KeyError(f"unknown finite place {label!r}")

    @property
    def is_rationals(self) -> bool:
        return self.degree == 1

    def place_for_prime(self, p: int) -> FinitePlace:
        """The finite place of the rational profile at the prime ``p``."""
        if not self.is_rationals:
            raise ValueError("place_for_prime is only available on the rational profile")
        if _prime_power(p) != (p, 1):
            raise ValueError(f"{p} is not prime")
        return FinitePlace(label=f"p{p}", q=p, d=0)

    @classmethod
    def rationals(cls) -> FieldProfile:
        return cls(
            degree=1,
            discriminant_abs=1,
            archimedean_places=(ArchimedeanPlace("inf"),),
            finite_places=(),
        )

    @classmethod
    def from_json(cls, text: str) -> FieldProfile:
        """Load a profile from ``{degree, discriminant, places:[{label,q,d}]}``."""
        import json

        doc = json.loads(text)
        places = tuple(
            FinitePlace(label=str(e["label"]), q=int(e["q"]), d=int(e.get("d", 0)))
            for e in doc.get("places", [])
        )
        degree = int(doc["degree"])
        arch = tuple(ArchimedeanPlace(f"inf{i}" if i else "inf") for i in range(degree))
        return cls(
            degree=degree,
            discriminant_abs=int(doc["discriminant"]),
            archimedean_places=arch,
            finite_places=places,
        )


RATIONALS = FieldProfile.rationals()


@record
class LevelIdeal:
    """An integral ideal given by its factorization into finite places.

    The empty factorization is the unit ideal.  Exponents are strictly
    positive; construction normalizes away zero entries and rejects negatives.
    """

    factors: tuple[tuple[FinitePlace, int], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for place, e in self.factors:
            if e <= 0:
                raise ValueError("exponents must be strictly positive")
            if place in seen:
                raise ValueError(f"repeated place {place.label} in factorization")
            seen.add(place)
        normalized = tuple(sorted(self.factors, key=lambda t: (t[0].q, t[0].label)))
        object.__setattr__(self, "factors", normalized)

    @classmethod
    def from_map(cls, exponents: Mapping[FinitePlace, int]) -> LevelIdeal:
        return cls(tuple((p, e) for p, e in exponents.items() if e != 0))

    @classmethod
    def unit(cls) -> LevelIdeal:
        return cls(())

    @classmethod
    def from_integer(cls, n: int, profile: FieldProfile = RATIONALS) -> LevelIdeal:
        """Factor a positive rational integer over the rational profile."""
        if n < 1:
            raise ValueError("level must be a positive integer")
        factors = [(profile.place_for_prime(p), e) for p, e in factorize(n)]
        return cls(tuple(factors))

    def support(self) -> tuple[FinitePlace, ...]:
        return tuple(p for p, _ in self.factors)

    def ord_at(self, place: FinitePlace) -> int:
        for p, e in self.factors:
            if p == place:
                return e
        return 0

    def max_exponent(self) -> int:
        return max((e for _, e in self.factors), default=0)

    def norm(self) -> int:
        """Absolute norm, exact (Python integers do not overflow)."""
        n = 1
        for p, e in self.factors:
            n *= p.q**e
        return n

    def log_norm(self) -> float:
        """log of the norm; preferred over ``math.log(norm())`` for huge levels."""
        return sum(e * math.log(p.q) for p, e in self.factors)

    def support_at_order(self, k: int) -> frozenset[FinitePlace]:
        """Places where the exponent is exactly ``k`` (``k >= 1``)."""
        if k < 1:
            raise ValueError("order must be >= 1")
        return frozenset(p for p, e in self.factors if e == k)

    def divides(self, other: LevelIdeal) -> bool:
        return all(other.ord_at(p) >= e for p, e in self.factors)

    def __mul__(self, other: LevelIdeal) -> LevelIdeal:
        acc: dict[FinitePlace, int] = {p: e for p, e in self.factors}
        for p, e in other.factors:
            acc[p] = acc.get(p, 0) + e
        return LevelIdeal.from_map(acc)

    def quotient(self, other: LevelIdeal) -> LevelIdeal:
        """Exact quotient ``self / other``; raises unless ``other | self``."""
        if not other.divides(self):
            raise ValueError("quotient requires exact divisibility")
        acc = {p: e - other.ord_at(p) for p, e in self.factors}
        return LevelIdeal.from_map(acc)

    def square_divisor_conductors(self) -> list[LevelIdeal]:
        """All ideals ``c`` with ``c**2 | self``, the unit ideal included.

        The result is sorted by (norm, factorization) and has exactly
        ``prod(1 + floor(e/2))`` entries.
        """
        out = [LevelIdeal.unit()]
        for place, e in self.factors:
            out = [
                c * LevelIdeal(((place, j),)) if j else c
                for c in out
                for j in range(e // 2 + 1)
            ]
        return sorted(out, key=lambda c: (c.norm(), c.factors))

    def __str__(self) -> str:
        if not self.factors:
            return "(1)"
        return "*".join(
            f"{p.label}^{e}" if e > 1 else p.label for p, e in self.factors
        )


def index_k0(n: LevelIdeal) -> int:
    """Index of the depth-``n`` congruence subgroup in the full maximal compact.

    Equals ``N(n) * prod_{v | n} (1 + 1/q_v) = prod_{v | n} q_v**(e_v - 1) (q_v + 1)``,
    an integer.
    """
    out = 1
    for p, e in n.factors:
        out *= p.q ** (e - 1) * (p.q + 1)
    return out


def _parse_level_factor(token: str) -> tuple[int, int]:
    """``(p, e)`` of one ``p^e`` or ``p`` factor of a level."""
    base, caret, exp = token.partition("^")
    try:
        return int(base), int(exp) if caret else 1
    except ValueError:
        raise ValueError(f"cannot parse level token {token!r} (use p^e*q, e.g. 2^3*5)") from None


def parse_factored_level(text: str, profile: FieldProfile = RATIONALS) -> LevelIdeal:
    """Parse ``"2^3*5"`` or ``"1"`` (or a plain integer) into a LevelIdeal."""
    text = text.strip()
    if text in ("1", "(1)", ""):
        return LevelIdeal.unit()
    if "*" not in text and "^" not in text:
        n, _ = _parse_level_factor(text)
        return LevelIdeal.from_integer(n, profile)
    acc: dict[FinitePlace, int] = {}
    for part in text.split("*"):
        p, e = _parse_level_factor(part)
        place = profile.place_for_prime(p)
        acc[place] = acc.get(place, 0) + e
    return LevelIdeal.from_map(acc)
