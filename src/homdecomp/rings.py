"""Graded-local quotient rings k[x1..xn]/I for a monomial ideal I.

These stand in for the corresponding complete local rings: depth, regular
sequences, local cohomology at the maximal ideal and so on are all read
off from exact monomial-ideal arithmetic.  A ring is always presented by
its defining ideal; modules of the form R/J are handled by passing the
ideal J alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .monomials import (
    DEFAULT_LENGTH_CAP,
    Monomial,
    MonomialIdeal,
    degree,
    format_ideal,
    format_monomial,
    mono_mul,
    monomials_between,
    parse_ideal,
    parse_monomial,
)


class SearchCapExceeded(RuntimeError):
    """A bounded existential search ran out of candidates."""


@dataclass(frozen=True)
class LocalRing:
    """k[variables]/defining, viewed as a graded-local ring.

    The defining ideal must be proper; the zero ideal (a polynomial ring)
    is allowed.  The length of an Artinian ring is counted on the first
    call to length() and stored.
    """

    variables: tuple[str, ...]
    defining: MonomialIdeal
    _length: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.variables) != self.defining.ambient:
            raise ValueError("variable count does not match the ambient ideal")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        if self.defining.is_unit():
            raise ValueError("defining ideal is the unit ideal; the ring is zero")

    @classmethod
    def from_text(cls, variables: tuple[str, ...], relations: str) -> "LocalRing":
        return cls(variables, parse_ideal(relations, variables))

    @property
    def ambient(self) -> int:
        return len(self.variables)

    @property
    def maximal_ideal(self) -> MonomialIdeal:
        gens = []
        for i in range(self.ambient):
            gens.append(tuple(1 if j == i else 0 for j in range(self.ambient)))
        return MonomialIdeal(self.ambient, gens)

    def dimension(self) -> int:
        return self.defining.dimension()

    def quotient(self, extra: MonomialIdeal) -> "LocalRing":
        """The ring modulo an additional ideal; errors out if that kills everything."""
        bigger = self.defining + extra
        if bigger.is_unit():
            raise ValueError("quotient by the unit ideal")
        return LocalRing(self.variables, bigger)

    def is_zero_element(self, u: Monomial) -> bool:
        return self.defining.contains(u)

    def length(self, cap: int = DEFAULT_LENGTH_CAP) -> int:
        # A stored length above cap is counted again, so the cap still raises.
        if self._length is None or self._length > cap:
            object.__setattr__(self, "_length", self.defining.length(cap))
        return self._length

    def parse_monomial(self, text: str) -> Monomial:
        return parse_monomial(text, self.variables)

    def parse_ideal(self, text: str) -> MonomialIdeal:
        return parse_ideal(text, self.variables)

    def fmt(self, u: Monomial) -> str:
        return format_monomial(u, self.variables)

    def fmt_ideal(self, I: MonomialIdeal) -> str:
        return format_ideal(I, self.variables)

    def __repr__(self) -> str:
        return f"k[{', '.join(self.variables)}]/{self.fmt_ideal(self.defining)}"


@dataclass(frozen=True)
class ParameterSystem:
    """A validated system of parameters for a LocalRing.

    Everything that depends on the parameters alone is built once and
    shared by every Hom module built over them: ``a_ideal`` is the
    parameter ideal (a1..ad), ``ideal`` is (a1..ad) + I, and ``base`` is
    the Artinian base ring S = R/(I + a) the Hom modules live over, so
    S's length is counted once.
    """

    ring: LocalRing
    params: tuple[Monomial, ...]
    a_ideal: MonomialIdeal = field(init=False, repr=False, compare=False)
    ideal: MonomialIdeal = field(init=False)
    base: LocalRing = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a_ideal = MonomialIdeal(self.ring.ambient, self.params)
        ideal = self.ring.defining + a_ideal
        object.__setattr__(self, "a_ideal", a_ideal)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "base", LocalRing(self.ring.variables, ideal))


def validate_sop(ring: LocalRing, params: list[Monomial]) -> ParameterSystem:
    """Check that params is a system of parameters: right count, finite colength.

    >>> R = LocalRing.from_text(("x", "y"), "(x^2, xy^2)")
    >>> validate_sop(R, [(0, 1)]).params
    ((0, 1),)
    """
    d = ring.dimension()
    if len(params) != d:
        raise ValueError(f"need exactly {d} parameters, got {len(params)}")
    for k, u in enumerate(params, start=1):
        if len(u) != ring.ambient:
            raise ValueError(f"parameter {u} does not live in the ambient ring")
        if not any(u):
            raise ValueError(f"parameter {k} is the unit 1; parameters must lie in "
                             "the maximal ideal")
    ps = ParameterSystem(ring, tuple(params))
    if not ps.ideal.is_finite_colength():
        raise ValueError("parameters do not cut the ring down to finite length")
    return ps


def is_regular_element(ring: LocalRing, u: Monomial) -> bool:
    """u is a non-zerodivisor on the ring, decided by (I : u) = I."""
    if ring.is_zero_element(u):
        raise ValueError(f"element {ring.fmt(u)} is zero in the ring")
    return ring.defining.colon_monomial(u) == ring.defining


def is_regular_sequence(ring: LocalRing, seq: list[Monomial]) -> bool:
    """Each element regular modulo the previous ones; empty sequences qualify."""
    current = ring
    for u in seq:
        if current.is_zero_element(u):
            raise ValueError(
                f"element {ring.fmt(u)} becomes zero in an intermediate quotient"
            )
        if not is_regular_element(current, u):
            return False
        current = current.quotient(MonomialIdeal(ring.ambient, [u]))
    return True


def is_cohen_macaulay(ps: ParameterSystem) -> bool:
    """CM iff the parameter system is a regular sequence."""
    return is_regular_sequence(ps.ring, list(ps.params))


def depth_is_zero(ring: LocalRing) -> bool:
    """True iff the socle (I : m)/I is non-zero."""
    I = ring.defining
    return I.colon(ring.maximal_ideal) != I


def socle_generators(ring: LocalRing) -> list[Monomial]:
    """Monomial generators of the socle: in (I : m) but not in I."""
    I = ring.defining
    return [g for g in I.colon(ring.maximal_ideal).gens if not I.contains(g)]


def gamma_m(ring: LocalRing) -> MonomialIdeal:
    """The ideal whose quotient by I is the m-power-torsion submodule.

    >>> R = LocalRing.from_text(("x", "y"), "(x^2, xy^2)")
    >>> R.fmt_ideal(gamma_m(R))
    '(x)'
    """
    return ring.defining.saturation(ring.maximal_ideal)


def gamma_module_generators(ring: LocalRing) -> list[Monomial]:
    """Generators of the torsion module: saturation generators outside I."""
    I = ring.defining
    return [g for g in gamma_m(ring).gens if not I.contains(g)]


def gamma_monomial_basis(ring: LocalRing, cap: int = DEFAULT_LENGTH_CAP) -> list[Monomial]:
    """All monomials in the saturation but not in I; a k-basis of the torsion.

    The torsion module has finite length, so the walk up from the
    saturation generators terminates; past cap monomials it raises
    LengthCapExceeded.
    """
    return monomials_between(gamma_m(ring), ring.defining, cap)


def stabilization_index(ring: LocalRing, cap: int = 64) -> int:
    """Least n >= 0 with (m^n + I) intersected with sat(I, m) inside I.

    Zero exactly when the torsion submodule vanishes; finite always, since
    the torsion has finite length.

    >>> stabilization_index(LocalRing.from_text(("x", "y"), "(x^2, xy^3)"))
    4
    """
    I = ring.defining
    m = ring.maximal_ideal
    sat = gamma_m(ring)
    power = MonomialIdeal.unit(ring.ambient)
    for n in range(cap + 1):
        if I.contains_ideal(power.intersect(sat)):
            return n
        power = power * m
    raise RuntimeError(f"stabilization index exceeded the cap {cap}")


def colon_identity_check(
    ring: LocalRing,
    L: MonomialIdeal,
    a: Monomial,
    b: Monomial,
    p: int,
    q: int,
    r: int,
) -> bool:
    """Exactness of (b a^r L : a^p) = a^(r-q) (b a^q L : a^p) + (0 :_L a^p).

    L is an ideal standing for the module (L + I)/I; the colon on the left
    side is taken inside that module, and both sides are compared as
    monomial ideals containing I.
    """
    if not 1 <= p <= q <= r:
        raise ValueError("need 1 <= p <= q <= r")
    I = ring.defining
    n = ring.ambient

    def apow(k: int) -> Monomial:
        out = (0,) * n
        for _ in range(k):
            out = mono_mul(out, a)
        return out

    Lmod = L + I
    ap = apow(p)

    def colon_in_L(sub: MonomialIdeal) -> MonomialIdeal:
        return sub.colon_monomial(ap).intersect(Lmod)

    lhs = colon_in_L(L * mono_mul(b, apow(r)) + I)
    inner = colon_in_L(L * mono_mul(b, apow(q)) + I)
    rhs = inner * apow(r - q) + I.colon_monomial(ap).intersect(Lmod) + I
    return lhs == rhs


def find_non_cm_power(ps: ParameterSystem, cap: int = 10) -> tuple[int, int]:
    """Find (i, s), 1-indexed, with ring/(a_i^s) not CM via the remaining parameters.

    Scans s = 1..cap, inner loop over i.  When some a_i is regular on the
    ring, (i, 1) necessarily works, so the scan finds it at s = 1.  If the
    cap is exhausted the instance needs manual review rather than a verdict.
    """
    ring = ps.ring
    if ring.dimension() < 2:
        raise ValueError("needs a ring of dimension at least 2")
    if is_cohen_macaulay(ps):
        raise ValueError("the ring is CM; no non-CM parameter power exists")
    for s in range(1, cap + 1):
        for i, a in enumerate(ps.params):
            power = a
            for _ in range(s - 1):
                power = mono_mul(power, a)
            quo = ring.quotient(MonomialIdeal(ring.ambient, [power]))
            rest = [p for j, p in enumerate(ps.params) if j != i]
            sub = validate_sop(quo, rest)
            if not is_cohen_macaulay(sub):
                return (i + 1, s)
    raise SearchCapExceeded(
        f"no non-CM parameter power with exponent <= {cap}; flag for manual review"
    )
