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

import math
import sys
from functools import reduce
from itertools import combinations
from itertools import product as _cartesian
from operator import le, neg
from typing import Iterable

Monomial = tuple[int, ...]

MAX_AMBIENT = 8
# The most standard monomials one enumeration may hold, read at call time.
LENGTH_CAP = 10**6


class CapExceeded(RuntimeError):
    """An enumeration, search or fixpoint loop hit a resource cap; the message names it."""


def degree(u: Monomial) -> int:
    return sum(u)


def divides(u: Monomial, v: Monomial) -> bool:
    """True iff u | v, i.e. the exponent vector of u is <= that of v."""
    return all(a <= b for a, b in zip(u, v))


def mono_mul(u: Monomial, v: Monomial) -> Monomial:
    return tuple(a + b for a, b in zip(u, v))


def mono_pow(u: Monomial, k: int) -> Monomial:
    return tuple(e * k for e in u)


def mono_lcm(u: Monomial, v: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(u, v))


def mono_quot(u: Monomial, v: Monomial) -> Monomial:
    """The monomial u / gcd(u, v); always a genuine monomial."""
    return tuple(max(a - b, 0) for a, b in zip(u, v))


def grlex_key(u: Monomial) -> tuple:
    """Sort key for graded-lex order: degree first, then x before y before z.

    >>> sorted([(0, 2), (2, 0), (1, 1)], key=grlex_key)
    [(2, 0), (1, 1), (0, 2)]
    """
    return (sum(u), tuple(map(neg, u)))


def _minimalize(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Drop every generator that is a multiple of another one."""
    ordered = sorted(set(gens), key=grlex_key)
    kept: list[Monomial] = []
    for g in ordered:
        if not any(divides(h, g) for h in kept):
            kept.append(g)
    return tuple(kept)


def _checked(u, ambient: int) -> Monomial:
    """u as a tuple, once it is ambient non-negative integer exponents; else ValueError."""
    u = tuple(u)
    if len(u) != ambient:
        raise ValueError(f"monomial {u} does not have {ambient} exponents")
    if not all(type(e) is int and e >= 0 for e in u):  # so a bool is no exponent
        raise ValueError(f"exponents must be non-negative integers, got {u}")
    return u


def _ideal(ambient: int, gens: Iterable[Monomial]) -> "MonomialIdeal":
    """The ideal of generators the kernel made from checked monomials; minimalized only."""
    return _minimal_ideal(ambient, _minimalize(gens))


def _minimal_ideal(ambient: int, gens: tuple[Monomial, ...]) -> "MonomialIdeal":
    """The ideal of checked generators already minimal and in graded-lex order."""
    I = object.__new__(MonomialIdeal)
    object.__setattr__(I, "ambient", ambient)
    object.__setattr__(I, "gens", gens)
    return I


class MonomialIdeal:
    """A monomial ideal, stored by its unique minimal generating set.

    Construction minimalizes and canonically sorts the generators, so two
    ideals are equal exactly when their ``gens`` tuples are equal.

    Monomials are checked where they enter the library: this constructor
    (and so parse_ideal) checks the ambient count and that every
    generator has that many non-negative integer exponents, and ``I * u``
    and ``I.colon_monomial(u)`` check their monomial ``u``.  The results
    of ``+``, ``*``, ``intersect``, ``colon_monomial``, ``colon``,
    ``saturation`` and ``radical`` are built from generators already
    checked, so they are only minimalized; ``+`` merges two minimal sets.

    >>> I = MonomialIdeal(2, [(2, 0), (1, 2)])       # (x^2, xy^2)
    >>> I.colon_monomial((0, 1)).gens                # (I : y)
    ((2, 0), (1, 1))
    """

    __slots__ = ("ambient", "gens")

    def __init__(self, ambient: int, gens: Iterable[Monomial] = ()):
        if not 1 <= ambient <= MAX_AMBIENT:
            raise ValueError(f"ambient variable count must be 1..{MAX_AMBIENT}, got {ambient}")
        checked = [_checked(g, ambient) for g in gens]
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
        """Membership: some generator divides u.

        The loop stops at the first such generator, and each test
        compares the exponents pairwise with no call per generator.
        """
        for g in self.gens:
            if all(map(le, g, u)):
                return True
        return False

    def __contains__(self, u: Monomial) -> bool:
        return self.contains(u)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        self._check_compatible(other)
        return all(self.contains(g) for g in other.gens)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Sum, merging the two minimal generator sets in |A|·|B| divisibility tests.

        Each set is an antichain, so a generator of one is not minimal in
        the union exactly when the other set holds a divisor of it.  A
        generator of self is dropped for a proper divisor in other, and
        one of other for any divisor in self, so a generator both hold is
        kept once.  The divisor that drops a generator is itself kept:
        were it dropped in turn, its own divisor would divide the first
        generator inside that generator's antichain.

        >>> (MonomialIdeal(2, [(2, 0), (1, 2)]) + MonomialIdeal(2, [(1, 2), (0, 3)])).gens
        ((2, 0), (1, 2), (0, 3))
        >>> (MonomialIdeal(2, [(2, 0), (1, 2)]) + MonomialIdeal(2, [(1, 1)])).gens
        ((2, 0), (1, 1))
        """
        self._check_compatible(other)
        mine, theirs = self.gens, other.gens
        kept = [g for g in mine if not any(h != g and all(map(le, h, g)) for h in theirs)]
        kept += [h for h in theirs if not any(all(map(le, g, h)) for g in mine)]
        kept.sort(key=grlex_key)
        return _minimal_ideal(self.ambient, tuple(kept))

    def __mul__(self, other) -> "MonomialIdeal":
        """Ideal product; also accepts a single monomial as the right factor."""
        if isinstance(other, tuple):
            u = _checked(other, self.ambient)
            return _ideal(self.ambient, [mono_mul(g, u) for g in self.gens])
        self._check_compatible(other)
        return _ideal(self.ambient, [mono_mul(g, h) for g in self.gens for h in other.gens])

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Intersection via pairwise lcms of the generators."""
        self._check_compatible(other)
        return _ideal(self.ambient, [mono_lcm(g, h) for g in self.gens for h in other.gens])

    def colon_monomial(self, u: Monomial) -> "MonomialIdeal":
        """(I : u) for a single monomial u."""
        u = _checked(u, self.ambient)
        return _ideal(self.ambient, [mono_quot(g, u) for g in self.gens])

    def colon(self, J: "MonomialIdeal") -> "MonomialIdeal":
        """(I : J) = I + ⋂_g (I : g)°, over the generators g of J.

        (I : g) is generated by the quotients h / gcd(h, g) of I's
        generators h, and (I : g)° keeps those outside I.  Each (I : g)
        is I + (I : g)°, and monomial ideals form a distributive lattice,
        so the intersection of the (I : g) is I plus the intersection of
        the parts outside I.  When one part is empty, (I : g) = I and the
        colon is I itself.  The parts are intersected by pairwise lcms,
        minimalized between steps, and one ideal is built at the end.

        >>> I = MonomialIdeal(2, [(2, 0), (1, 2)])       # (x^2, xy^2)
        >>> I.colon(MonomialIdeal(2, [(1, 0), (0, 1)])).gens   # (I : (x, y))
        ((2, 0), (1, 1))
        >>> I.colon(MonomialIdeal.unit(2)) is I                # no part outside I
        True
        """
        self._check_compatible(J)
        if J.is_zero():
            raise ValueError("colon by the zero ideal is undefined")
        inside = self.contains
        common = None
        for g in J.gens:
            part = [q for q in (mono_quot(h, g) for h in self.gens) if not inside(q)]
            if not part:
                return self
            common = part if common is None else _minimalize(
                mono_lcm(u, v) for u in common for v in part)
        return _ideal(self.ambient, self.gens + tuple(common))

    def saturation(self, J: "MonomialIdeal") -> "MonomialIdeal":
        """(I : J^infinity) = ⋂ (I : g^M) over g in J.gens, for M the top exponent of I.

        (h) : g^k = h / gcd(h, g^k) is h with its supp(g) exponents set to 0
        once k >= M, and the colon by a monomial distributes over sums, so
        (I : g^k) = (I : g^M) for k >= M.  Each g^k is in J^k, and if every
        u g_i^M is in I, so is u J^N for N = len(J.gens) (M - 1) + 1: a
        product of N generators repeats some g_i at least M times.

        >>> I = MonomialIdeal(2, [(1500, 0), (1, 1)])               # (x^1500, xy)
        >>> I.saturation(MonomialIdeal(2, [(1, 0), (0, 1)])).gens  # (1) ∩ (x)
        ((1, 0),)
        """
        self._check_compatible(J)
        if J.is_zero():
            raise ValueError("saturation by the zero ideal is undefined")
        top = max((e for h in self.gens for e in h), default=0)
        return reduce(MonomialIdeal.intersect,
                      (self.colon_monomial(mono_pow(g, top)) for g in J.gens))

    def radical(self) -> "MonomialIdeal":
        """Radical: generated by the squarefree parts of the generators."""
        return _ideal(self.ambient, [tuple(min(e, 1) for e in g) for g in self.gens])

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
        for size in range(self.ambient, -1, -1):
            for subset in map(frozenset, combinations(range(self.ambient), size)):
                if not any(s <= subset for s in supports):
                    return size

    def _pure_powers(self) -> list[int | None]:
        """Least exponent e with x_i^e in I, for each variable x_i; None where none is.

        The generators are minimal, so each variable has at most one pure
        power among them.  The unit ideal has every entry 0.

        >>> MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 3, 0)])._pure_powers()
        [2, 3, None]
        """
        least: list[int | None] = [None] * self.ambient
        for g in self.gens:
            support = [i for i, e in enumerate(g) if e]
            if not support:
                return [0] * self.ambient
            if len(support) == 1:
                least[support[0]] = g[support[0]]
        return least

    def is_finite_colength(self) -> bool:
        """True iff k[x]/I is finite dimensional: every variable has a pure power in I."""
        return None not in self._pure_powers()

    def _finite_bounds(self) -> list[int]:
        """Least pure-power exponent of each variable: the box of every standard monomial."""
        bounds = self._pure_powers()
        if None in bounds:
            raise ValueError("ideal does not have finite colength")
        return bounds

    def standard_monomials(self) -> list[Monomial]:
        """All monomials not in I, in graded-lex order; requires finite colength.

        One membership test per cell of the pure-power box, kept as the
        plain reading that row_thresholds is tested against.

        >>> MonomialIdeal(2, [(2, 0), (0, 2)]).standard_monomials()
        [(0, 0), (1, 0), (0, 1), (1, 1)]
        """
        bounds = _capped(self._finite_bounds())
        out = [u for u in _cartesian(*map(range, bounds)) if not self.contains(u)]
        out.sort(key=grlex_key)
        return out

    def length(self) -> int:
        """dim_k of k[x]/I, the sum of I's row thresholds over its own box.

        Requires finite colength.

        >>> MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)]).length()
        4
        """
        return sum(row_thresholds(self, self._finite_bounds()).values())


def _capped(bounds: list[int]) -> list[int]:
    """bounds, once the box [0, bounds_j) they span is known to hold at most LENGTH_CAP cells."""
    volume = math.prod(bounds)
    if volume > LENGTH_CAP:
        raise CapExceeded(f"box volume {volume} exceeds cap {LENGTH_CAP}")
    return bounds


def row_thresholds(L: MonomialIdeal, bounds: list[int]) -> dict[Monomial, int]:
    """Where each row of the box [0, bounds_j) enters L, read along the last variable.

    Write a cell u = (p, k), with p its first n - 1 exponents.  A
    generator h = (h', h_n) of L divides (p, k) exactly when h' <= p and
    h_n <= k, so row p meets L in the cells k >= r(p) = min{h_n : h in
    G(L), h' <= p}, or in none when no h has h' <= p.  The row's cells
    outside L are then k < f(p) = min(bounds_n, r(p)), or k < bounds_n
    when r(p) is undefined.  Returns f(p) for every row p, in product
    order, so the cells of the box outside L number the sum of the
    f(p).  A box of more than LENGTH_CAP cells raises CapExceeded.

    >>> row_thresholds(MonomialIdeal(2, [(2, 0), (1, 2)]), [2, 4])   # (x^2, xy^2)
    {(0,): 4, (1,): 2}
    """
    *head, top = _capped(bounds)
    lead = [(h[:-1], h[-1]) for h in L.gens]
    return {p: min([top] + [k for q, k in lead if all(map(le, q, p))])
            for p in _cartesian(*map(range, head))}


def monomials_between(upper: MonomialIdeal, lower: MonomialIdeal) -> list[Monomial]:
    """The monomials of upper that are not in lower, in graded-lex order.

    Read off _between's walk from upper's generators.  lower need not
    have finite colength; the walk ends whenever the set is finite and
    raises CapExceeded past LENGTH_CAP monomials.

    >>> upper = MonomialIdeal(2, [(0, 1), (2, 0)])      # (y, x^2)
    >>> monomials_between(upper, MonomialIdeal(2, [(2, 0), (0, 2)]))
    [(0, 1), (1, 1)]
    >>> monomials_between(MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(2, 0), (1, 2)]))
    [(1, 0), (1, 1)]
    """
    upper._check_compatible(lower)
    return sorted(_between(upper.gens, lower), key=grlex_key)


def _between(gens, lower: MonomialIdeal) -> set[Monomial]:
    """The monomials of the ideal that gens generate that are not in lower.

    gens is any generating list, minimal or not.  The walk starts at the
    generators outside lower and steps up one variable at a time.  It
    reaches every such monomial u: u is g * w for some g in gens, and
    each monomial between g and u on the way divides u, so it lies in the
    ideal and, as lower is an ideal, outside lower.  It raises
    CapExceeded once it holds more than LENGTH_CAP monomials.
    """
    in_lower = lower.contains
    found = {g for g in gens if not in_lower(g)}
    frontier = list(found)
    while frontier:
        step = []
        for u in frontier:
            for i in range(len(u)):
                v = u[:i] + (u[i] + 1,) + u[i + 1:]
                if v not in found and not in_lower(v):
                    found.add(v)
                    step.append(v)
        if len(found) > LENGTH_CAP:
            raise CapExceeded(
                f"count of monomials between the ideals exceeds cap {LENGTH_CAP}")
        frontier = step
    return found


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
            while pos < len(text) and "0" <= text[pos] <= "9":  # not isdigit: int() refuses '²'
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
