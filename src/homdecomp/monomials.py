"""Exact arithmetic for monomial ideals in a polynomial ring.

A monomial in ``n`` variables is represented as a plain tuple of ``n``
non-negative integer exponents; there is deliberately no wrapper class,
so all helpers here are cheap functions on tuples.  A monomial ideal is
a :class:`MonomialIdeal`, which stores the ambient variable count and a
canonical minimal generating set (sorted in graded-lex order).

The coefficient field never appears: every operation below is a purely
combinatorial statement about exponent vectors, which is what makes the
arithmetic exact.

>>> I = MonomialIdeal(2, [(0, 1), (1, 1), (2, 0)])   # (y, xy, x^2)
>>> I.gens
((0, 1), (2, 0))
>>> I.contains((1, 3))
True
"""

from __future__ import annotations

import sys
from itertools import product as _cartesian
from typing import Iterable, Iterator

Monomial = tuple[int, ...]

MAX_AMBIENT = 8
DEFAULT_LENGTH_CAP = 10**6


class LengthCapExceeded(RuntimeError):
    """Raised when a standard-monomial enumeration would exceed the cap."""


def degree(u: Monomial) -> int:
    return sum(u)


def divides(u: Monomial, v: Monomial) -> bool:
    """True iff u | v, i.e. the exponent vector of u is <= that of v."""
    return all(a <= b for a, b in zip(u, v))


def mono_mul(u: Monomial, v: Monomial) -> Monomial:
    return tuple(a + b for a, b in zip(u, v))


def mono_lcm(u: Monomial, v: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(u, v))


def mono_gcd(u: Monomial, v: Monomial) -> Monomial:
    return tuple(min(a, b) for a, b in zip(u, v))


def mono_quot(u: Monomial, v: Monomial) -> Monomial:
    """The monomial u / gcd(u, v); always a genuine monomial."""
    return tuple(max(a - b, 0) for a, b in zip(u, v))


def grlex_key(u: Monomial) -> tuple:
    """Sort key for graded-lex order: degree first, then x before y before z.

    >>> sorted([(0, 2), (2, 0), (1, 1)], key=grlex_key)
    [(2, 0), (1, 1), (0, 2)]
    """
    return (sum(u), tuple(-e for e in u))


def _minimalize(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Drop every generator that is a multiple of another one."""
    ordered = sorted(set(gens), key=grlex_key)
    kept: list[Monomial] = []
    for g in ordered:
        if not any(divides(h, g) for h in kept):
            kept.append(g)
    return tuple(kept)


class MonomialIdeal:
    """A monomial ideal, stored by its unique minimal generating set.

    Construction minimalizes and canonically sorts the generators, so two
    ideals are equal exactly when their ``gens`` tuples are equal.

    >>> I = MonomialIdeal(2, [(2, 0), (1, 2)])       # (x^2, xy^2)
    >>> I.colon_monomial((0, 1)).gens                # (I : y)
    ((2, 0), (1, 1))
    >>> I.saturation(MonomialIdeal(2, [(1, 0), (0, 1)])).gens
    ((1, 0),)
    """

    __slots__ = ("ambient", "gens")

    def __init__(self, ambient: int, gens: Iterable[Monomial] = ()):
        if not 1 <= ambient <= MAX_AMBIENT:
            raise ValueError(f"ambient variable count must be 1..{MAX_AMBIENT}, got {ambient}")
        checked = []
        for g in gens:
            g = tuple(g)
            if len(g) != ambient:
                raise ValueError(f"monomial {g} does not have {ambient} exponents")
            if any(e < 0 or not isinstance(e, int) for e in g):
                raise ValueError(f"exponents must be non-negative integers, got {g}")
            checked.append(g)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "gens", _minimalize(checked))

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    @classmethod
    def zero(cls, ambient: int) -> "MonomialIdeal":
        return cls(ambient, ())

    @classmethod
    def unit(cls, ambient: int) -> "MonomialIdeal":
        return cls(ambient, [(0,) * ambient])

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return bool(self.gens) and degree(self.gens[0]) == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.ambient == other.ambient
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.gens))

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.ambient}, {list(self.gens)})"

    def _check_compatible(self, other: "MonomialIdeal") -> None:
        if not isinstance(other, MonomialIdeal) or other.ambient != self.ambient:
            raise ValueError("ideals live in different ambient rings")

    def contains(self, u: Monomial) -> bool:
        """Membership: some generator divides u."""
        return any(divides(g, u) for g in self.gens)

    def __contains__(self, u: Monomial) -> bool:
        return self.contains(u)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        self._check_compatible(other)
        return all(self.contains(g) for g in other.gens)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_compatible(other)
        return MonomialIdeal(self.ambient, self.gens + other.gens)

    def __mul__(self, other) -> "MonomialIdeal":
        """Ideal product; also accepts a single monomial as the right factor."""
        if isinstance(other, tuple):
            return MonomialIdeal(self.ambient, [mono_mul(g, other) for g in self.gens])
        self._check_compatible(other)
        return MonomialIdeal(
            self.ambient, [mono_mul(g, h) for g in self.gens for h in other.gens]
        )

    def power(self, k: int) -> "MonomialIdeal":
        if k < 0:
            raise ValueError("negative ideal power")
        out = MonomialIdeal.unit(self.ambient)
        for _ in range(k):
            out = out * self
        return out

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Intersection via pairwise lcms of the generators."""
        self._check_compatible(other)
        return MonomialIdeal(
            self.ambient, [mono_lcm(g, h) for g in self.gens for h in other.gens]
        )

    def colon_monomial(self, u: Monomial) -> "MonomialIdeal":
        """(I : u) for a single monomial u."""
        return MonomialIdeal(self.ambient, [mono_quot(g, u) for g in self.gens])

    def colon(self, J: "MonomialIdeal") -> "MonomialIdeal":
        """(I : J) = intersection of (I : g) over the generators of J."""
        self._check_compatible(J)
        if J.is_zero():
            raise ValueError("colon by the zero ideal is undefined")
        out = None
        for g in J.gens:
            piece = self.colon_monomial(g)
            out = piece if out is None else out.intersect(piece)
        return out

    def saturation(self, J: "MonomialIdeal", cap: int = 1000) -> "MonomialIdeal":
        """(I : J^infinity), computed by iterating the colon to a fixpoint."""
        current = self
        for _ in range(cap):
            step = current.colon(J)
            if step == current:
                return current
            current = step
        raise RuntimeError("saturation did not stabilize within the iteration cap")

    def radical(self) -> "MonomialIdeal":
        """Radical: generated by the squarefree parts of the generators."""
        return MonomialIdeal(
            self.ambient, [tuple(min(e, 1) for e in g) for g in self.gens]
        )

    def dimension(self) -> int:
        """Krull dimension of k[x]/I.

        Largest size of a variable subset S such that no generator has its
        support inside S; the unit ideal has dimension -1 by convention.

        >>> MonomialIdeal(3, [(2, 0, 0), (1, 1, 1)]).dimension()
        2
        """
        if self.is_unit():
            return -1
        supports = [frozenset(i for i, e in enumerate(g) if e > 0) for g in self.gens]
        best = -1
        for size in range(self.ambient, -1, -1):
            for subset in _subsets(self.ambient, size):
                if not any(s <= subset for s in supports):
                    return size
        return best

    def is_finite_colength(self) -> bool:
        """True iff k[x]/I is finite dimensional: every variable has a pure power in I."""
        if self.is_unit():
            return True
        for i in range(self.ambient):
            if not any(
                g[i] > 0 and all(e == 0 for j, e in enumerate(g) if j != i)
                for g in self.gens
            ):
                return False
        return True

    def _box_bounds(self) -> list[int]:
        bounds = []
        for i in range(self.ambient):
            pure = [g[i] for g in self.gens if g[i] > 0
                    and all(e == 0 for j, e in enumerate(g) if j != i)]
            bounds.append(min(pure))
        return bounds

    def standard_monomials(self, cap: int = DEFAULT_LENGTH_CAP) -> list[Monomial]:
        """All monomials not in I, in graded-lex order; requires finite colength.

        >>> MonomialIdeal(2, [(2, 0), (0, 2)]).standard_monomials()
        [(0, 0), (1, 0), (0, 1), (1, 1)]
        """
        if self.is_unit():
            return []
        if not self.is_finite_colength():
            raise ValueError("ideal does not have finite colength")
        bounds = self._box_bounds()
        volume = 1
        for b in bounds:
            volume *= b
        if volume > cap:
            raise LengthCapExceeded(f"box volume {volume} exceeds cap {cap}")
        out = [u for u in _cartesian(*(range(b) for b in bounds)) if not self.contains(u)]
        out.sort(key=grlex_key)
        return out

    def length(self, cap: int = DEFAULT_LENGTH_CAP) -> int:
        """dim_k of k[x]/I; requires finite colength."""
        return len(self.standard_monomials(cap))


def _subsets(n: int, size: int) -> Iterator[frozenset]:
    from itertools import combinations

    for combo in combinations(range(n), size):
        yield frozenset(combo)


# ---------------------------------------------------------------------------
# text syntax: monomials like "x^2", "xy^3", "1"; ideals like "(x^2, xy^3)"
# ---------------------------------------------------------------------------


def parse_monomial(text: str, names: tuple[str, ...]) -> Monomial:
    """Parse a monomial written with the given variable names.

    >>> parse_monomial("xy^3", ("x", "y"))
    (1, 3)
    >>> parse_monomial("1", ("x", "y"))
    (0, 0)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty monomial")
    if text == "1":
        return (0,) * len(names)
    exps = [0] * len(names)
    by_length = sorted(range(len(names)), key=lambda i: -len(names[i]))
    pos = 0
    while pos < len(text):
        match = None
        for i in by_length:
            if text.startswith(names[i], pos):
                match = i
                break
        if match is None:
            raise ValueError(f"unknown variable at {text[pos:]!r} in monomial {text!r}")
        pos += len(names[match])
        if pos < len(text) and text[pos] == "^":
            pos += 1
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            if start == pos:
                raise ValueError(f"missing exponent after '^' in {text!r}")
            exps[match] += int(text[start:pos])
        else:
            exps[match] += 1
    return tuple(exps)


def parse_ideal(text: str, names: tuple[str, ...]) -> MonomialIdeal:
    """Parse an ideal given as a parenthesized comma-separated monomial list.

    "(0)" and "()" denote the zero ideal.

    >>> parse_ideal("(x^2, xy^3)", ("x", "y")).gens
    ((2, 0), (1, 3))
    """
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"ideal must be parenthesized: {text!r}")
    inner = text[1:-1].strip()
    if inner in ("", "0"):
        return MonomialIdeal.zero(len(names))
    gens = [parse_monomial(part, names) for part in inner.split(",")]
    return MonomialIdeal(len(names), gens)


def format_monomial(u: Monomial, names: tuple[str, ...]) -> str:
    """Canonical text for a monomial; '^1' is omitted and 1 is the unit.

    The text is interned, as is format_ideal's: reports repeat the same
    monomials and ideals, and a caller that keeps many reports then
    stores each text once.

    >>> format_monomial((1, 3), ("x", "y"))
    'xy^3'
    """
    parts = []
    for name, e in zip(names, u):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return sys.intern("".join(parts) or "1")


def format_ideal(I: MonomialIdeal, names: tuple[str, ...]) -> str:
    """Canonical text for an ideal, generators in graded-lex order.

    >>> format_ideal(MonomialIdeal(2, [(0, 2), (2, 0)]), ("x", "y"))
    '(x^2, y^2)'
    """
    if I.is_zero():
        return "(0)"
    return sys.intern("(" + ", ".join(format_monomial(g, names) for g in I.gens) + ")")
