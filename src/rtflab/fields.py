"""The base field Q: its places and factored ideals.

Every formula in this library reads a place only through its residue
cardinality ``q``.  `RATIONALS` is Q, with its one real place and a finite
place per prime, made on demand; a level is a `LevelIdeal`, a factorization
into finite places.
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


@record
class ArchimedeanPlace:
    """A real embedding of the base field, identified by its label."""

    label: str


@record
class FinitePlace:
    """A finite place: its label and its residue cardinality."""

    label: str
    q: int

    def __post_init__(self) -> None:
        if _prime_power(self.q) is None:
            raise ValueError(f"residue cardinality {self.q} is not a prime power >= 2")


Place = ArchimedeanPlace | FinitePlace


def place_sort_key(place: Place) -> tuple[int, int, str]:
    """The order of the places of S: the archimedean places first, by label,
    then the finite places by (q, label), so p2 comes before p11."""
    if isinstance(place, FinitePlace):
        return (1, place.q, place.label)
    return (0, 0, place.label)


class _Rationals:
    """Q: one real place, and a finite place per prime made on demand."""

    archimedean_places = (ArchimedeanPlace("inf"),)

    def place_for_prime(self, p: int) -> FinitePlace:
        """The finite place of Q at the prime ``p``."""
        if _prime_power(p) != (p, 1):
            raise ValueError(f"{p} is not prime")
        return FinitePlace(label=f"p{p}", q=p)


RATIONALS = _Rationals()


@record
class LevelIdeal:
    """An integral ideal given by its factorization into finite places.

    The empty factorization is the unit ideal.  Exponents are strictly
    positive: construction rejects zero and negative ones (`from_map` drops
    zero entries first).
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
        normalized = tuple(sorted(self.factors, key=lambda t: place_sort_key(t[0])))
        object.__setattr__(self, "factors", normalized)

    @classmethod
    def from_map(cls, exponents: Mapping[FinitePlace, int]) -> LevelIdeal:
        return cls(tuple((p, e) for p, e in exponents.items() if e != 0))

    @classmethod
    def unit(cls) -> LevelIdeal:
        return cls(())

    @classmethod
    def from_integer(cls, n: int) -> LevelIdeal:
        """Factor a positive integer into the places of Q."""
        if n < 1:
            raise ValueError("level must be a positive integer")
        factors = [(RATIONALS.place_for_prime(p), e) for p, e in factorize(n)]
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

        The result is sorted by norm, then by the factorization in the order
        of `place_sort_key`, and has exactly ``prod(1 + floor(e/2))`` entries.
        """
        out = [LevelIdeal.unit()]
        for place, e in self.factors:
            out = [
                c * LevelIdeal(((place, j),)) if j else c
                for c in out
                for j in range(e // 2 + 1)
            ]
        return sorted(
            out, key=lambda c: (c.norm(), [(place_sort_key(p), e) for p, e in c.factors])
        )

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
    """``(p, e)`` of one ``p^e`` or ``p`` factor of a level; ``e`` must be at
    least 1, so that no token cancels another (``2^1*2^-1``)."""
    base, caret, exp = token.partition("^")
    try:
        p, e = int(base), int(exp) if caret else 1
    except ValueError:
        raise ValueError(f"cannot parse level token {token!r} (use p^e*q, e.g. 2^3*5)") from None
    if e < 1:
        raise ValueError(f"level token {token!r} has exponent {e}; exponents must be at least 1")
    return p, e


def parse_factored_level(text: str) -> LevelIdeal:
    """Parse ``"2^3*5"`` or ``"1"`` (or a plain integer) into a LevelIdeal."""
    text = text.strip()
    if text in ("1", "(1)", ""):
        return LevelIdeal.unit()
    if "*" not in text and "^" not in text:
        n, _ = _parse_level_factor(text)
        return LevelIdeal.from_integer(n)
    acc: dict[FinitePlace, int] = {}
    for part in text.split("*"):
        p, e = _parse_level_factor(part)
        place = RATIONALS.place_for_prime(p)
        acc[place] = acc.get(place, 0) + e
    return LevelIdeal.from_map(acc)
