"""Graded-local quotient rings k[x1..xn]/I for a monomial ideal I.

These stand in for the corresponding complete local rings: depth, regular
sequences, local cohomology at the maximal ideal and so on are all read
off from exact monomial-ideal arithmetic.  A ring is always presented by
its defining ideal; modules of the form R/J are handled by passing the
ideal J alongside.
"""

from __future__ import annotations

from functools import cached_property

from .monomials import (
    CapExceeded,
    Monomial,
    MonomialIdeal,
    _checked,
    _ideal,
    format_ideal,
    format_monomial,
    mono_mul,
    mono_pow,
    parse_ideal,
    parse_monomial,
)

STABILIZATION_CAP = 64


class _Value:
    """Base of the immutable classes: == and hash compare _key().

    Each subclass sets its attributes once, through the instance
    dictionary, in its own __init__, and defines _key and __repr__;
    cached_property caches land in the same dictionary.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class LocalRing(_Value):
    """k[variables]/defining, viewed as a graded-local ring.

    The defining ideal must be proper; the zero ideal (a polynomial ring)
    is allowed.  variables is stored as a tuple.  A ring is immutable:
    ==, hash and repr read variables and defining alone.  𝔪, the
    dimension, the repr text, the length of an Artinian ring, the torsion
    Γ_m(R) and the stabilization index are each computed on their first
    read and kept in the instance dictionary, which == and hash do not
    read.
    """

    def __init__(self, variables: tuple[str, ...], defining: MonomialIdeal):
        variables = tuple(variables)
        if len(variables) != defining.ambient:
            raise ValueError("variable count does not match the ambient ideal")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        if defining.is_unit():
            raise ValueError("defining ideal is the unit ideal; the ring is zero")
        self.__dict__.update(variables=variables, defining=defining)

    def _key(self) -> tuple:
        return self.variables, self.defining

    @classmethod
    def from_text(cls, variables: tuple[str, ...], relations: str) -> "LocalRing":
        return cls(variables, parse_ideal(relations, variables))

    @property
    def ambient(self) -> int:
        return len(self.variables)

    @cached_property
    def maximal_ideal(self) -> MonomialIdeal:
        """𝔪 = (x_1..x_n)."""
        n = self.ambient
        return _ideal(n, [tuple(int(j == i) for j in range(n)) for i in range(n)])

    @cached_property
    def _length(self) -> int:
        return self.defining.length()

    @cached_property
    def _gamma(self) -> MonomialIdeal:
        """(I : 𝔪^∞); read it through gamma_m."""
        return self.defining.saturation(self.maximal_ideal)

    @cached_property
    def _index(self) -> int:
        """Least n with (m^n + I) ∩ Γ inside I; read it through stabilization_index."""
        I = self.defining
        gamma = gamma_m(self)
        m = self.maximal_ideal
        power = MonomialIdeal.unit(self.ambient)
        for n in range(STABILIZATION_CAP + 1):
            if I.contains_ideal(power.intersect(gamma)):
                return n
            power = power * m
        raise CapExceeded(f"stabilization index exceeded the cap {STABILIZATION_CAP}")

    @cached_property
    def _dimension(self) -> int:
        return self.defining.dimension()

    def dimension(self) -> int:
        return self._dimension

    def quotient(self, extra: MonomialIdeal) -> "LocalRing":
        """The ring modulo an additional ideal; errors out if that kills everything."""
        bigger = self.defining + extra
        if bigger.is_unit():
            raise ValueError("quotient by the unit ideal")
        return LocalRing(self.variables, bigger)

    def length(self) -> int:
        return self._length

    def parse_monomial(self, text: str) -> Monomial:
        return parse_monomial(text, self.variables)

    def parse_ideal(self, text: str) -> MonomialIdeal:
        return parse_ideal(text, self.variables)

    def fmt(self, u: Monomial) -> str:
        return format_monomial(u, self.variables)

    def fmt_ideal(self, I: MonomialIdeal) -> str:
        return format_ideal(I, self.variables)

    @cached_property
    def _repr(self) -> str:
        return f"k[{', '.join(self.variables)}]/{self.fmt_ideal(self.defining)}"

    def __repr__(self) -> str:
        return self._repr


class ParameterSystem(_Value):
    """A validated system of parameters for a LocalRing.

    Everything that depends on the parameters alone is built once and
    shared by every Hom module built over them: ``a_ideal`` is the
    parameter ideal (a1..ad), ``ideal`` is (a1..ad) + I, and ``base`` is
    the Artinian base ring S = R/(I + a) the Hom modules live over, so
    S's length is counted once.  params is stored as a tuple of checked
    monomials, tuples of non-negative ints.  A system is immutable: ==,
    hash and repr read ring, params and ideal, and not a_ideal, base or
    the cached variables, which those determine.
    """

    def __init__(self, ring: LocalRing, params: tuple[Monomial, ...]):
        params = tuple(_checked(u, ring.ambient) for u in params)
        a_ideal = _ideal(ring.ambient, params)
        ideal = ring.defining + a_ideal
        self.__dict__.update(ring=ring, params=params, a_ideal=a_ideal, ideal=ideal,
                             base=LocalRing(ring.variables, ideal))

    def _key(self) -> tuple:
        return self.ring, self.params, self.ideal

    def __repr__(self) -> str:
        return f"ParameterSystem(ring={self.ring!r}, params={self.params!r}, ideal={self.ideal!r})"

    @cached_property
    def variables(self) -> tuple[int, ...]:
        """The index v_i of the variable each parameter is a pure power of.

        Every system that validate_sop accepts is made of pure powers
        a_i = x_{v_i}^{e_i} of distinct variables free in I, that is with
        no pure power in I.  As R has dimension d, some set S of d
        variables holds the support of no generator of I.  I + 𝔞 has
        finite colength, so each x_j in S has a pure power in I + 𝔞; a
        monomial dividing it is a pure power of x_j and not from I, so it
        is some a_i.  A monomial other than 1 is a pure power of at most
        one variable, so the a_i are pure powers of the d variables of S.
        Parameters of a system built without validate_sop that break this
        raise ValueError naming the first such parameter.

        >>> R = LocalRing.from_text(("x", "y", "z"), "(x^2, xyz)")
        >>> validate_sop(R, [R.parse_monomial("z^2"), R.parse_monomial("y")]).variables
        (2, 1)
        """
        free = [e is None for e in self.ring.defining._pure_powers()]
        out = []
        for a in self.params:
            support = [v for v, e in enumerate(a) if e]
            if len(support) != 1 or not free[support[0]]:
                raise ValueError(f"parameter {self.ring.fmt(a)} is not a pure power of a "
                                 "variable free in the relations and in the other parameters")
            free[support[0]] = False
            out.append(support[0])
        return tuple(out)


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
    ps = ParameterSystem(ring, params)
    if not ps.ideal.is_finite_colength():
        raise ValueError("parameters do not cut the ring down to finite length")
    return ps


def is_cohen_macaulay(ps: ParameterSystem) -> bool:
    """CM iff the parameters form a regular sequence: no x_{v_i} divides a generator of I.

    For monomial ideals, x_v^e is a non-zerodivisor on k[x]/I exactly
    when x_v divides no minimal generator of I (Miller-Sturmfels,
    Combinatorial Commutative Algebra, ch. 1): a generator g with g_v > 0
    puts g / x_v^{min(g_v, e)}, a proper divisor of g and so outside I,
    into (I : x_v^e), and when no generator involves x_v, one dividing
    u x_v^e divides u.  Walk the sequence a_i = x_{v_i}^{e_i} (see
    ParameterSystem.variables).  While no generator of I involves
    x_{v_1}..x_{v_k}, none of them is divisible by a_1..a_k, so the
    minimal generators of I + (a_1..a_k) are those of I and the a_j,
    none of which involves x_{v_{k+1}}; and a_{k+1} is never zero there,
    as x_{v_{k+1}} has no pure power in I.  So a_{k+1} is regular exactly
    when no generator of I involves x_{v_{k+1}}, and the walk fails at
    the first parameter whose variable occurs in a generator of I.
    """
    return not any(g[v] for g in ps.ring.defining.gens for v in ps.variables)


def depth_is_zero(ring: LocalRing) -> bool:
    """True iff Γ_m(R) ≠ I, that is iff the socle (I : m)/I is non-zero.

    Depth zero means m is associated to R, which for R = k[x]/I is a
    non-zero socle (I : m)/I.  Γ = gamma_m(ring) = (I : m^∞) contains
    (I : m), so a socle monomial outside I lies in Γ and Γ ≠ I.
    Conversely Γ/I = H⁰_m(R) is finitely generated and killed by a
    power of m, so it has finite length and only finitely many monomials
    of Γ lie outside I.  If there is one, take u of largest degree among
    them: each x_i u lies in the ideal Γ and has larger degree, so it
    lies in I, and u is a socle monomial of (I : m)/I.  So a non-zero
    finite-length Γ/I has a non-zero socle, and depth zero is read off
    the ring's one saturation as Γ ≠ I.

    >>> depth_is_zero(LocalRing.from_text(("x", "y"), "(x^2, xy^2)"))
    True
    """
    return gamma_m(ring) != ring.defining


def gamma_m(ring: LocalRing) -> MonomialIdeal:
    """The ideal Γ = (I : m^∞) whose quotient by I is the m-power-torsion submodule.

    It is saturated on the first read for each ring object and kept, so
    depth_is_zero, gamma_module_generators and stabilization_index all
    read one saturation per ring.

    >>> R = LocalRing.from_text(("x", "y"), "(x^2, xy^2)")
    >>> R.fmt_ideal(gamma_m(R))
    '(x)'
    """
    return ring._gamma


def gamma_module_generators(ring: LocalRing) -> list[Monomial]:
    """Generators of the torsion module: saturation generators outside I."""
    I = ring.defining
    return [g for g in gamma_m(ring).gens if not I.contains(g)]


def stabilization_index(ring: LocalRing) -> int:
    """Least n >= 0 with (m^n + I) intersected with Γ = gamma_m(ring) inside I.

    Zero exactly when the torsion submodule vanishes; finite always, since
    the torsion has finite length.  It is searched on the first read for
    each ring object and kept, as Γ is, so every 3.1 and 3.3 report made
    on one ring shares one search.  A search that passes
    STABILIZATION_CAP raises CapExceeded and keeps nothing, so every
    later read searches and raises again.

    >>> stabilization_index(LocalRing.from_text(("x", "y"), "(x^2, xy^3)"))
    4
    """
    return ring._index


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
    Lmod = L + I
    ap = mono_pow(a, p)

    def colon_in_L(sub: MonomialIdeal) -> MonomialIdeal:
        return sub.colon_monomial(ap).intersect(Lmod)

    lhs = colon_in_L(L * mono_mul(b, mono_pow(a, r)) + I)
    inner = colon_in_L(L * mono_mul(b, mono_pow(a, q)) + I)
    rhs = inner * mono_pow(a, r - q) + I.colon_monomial(ap).intersect(Lmod) + I
    return lhs == rhs


def reduced_system(ps: ParameterSystem, index: int, power: int) -> ParameterSystem:
    """ps with parameter #index (1-based) raised to power and quotiented out.

    The remaining parameters form a system of parameters of the quotient.
    """
    extra = MonomialIdeal(ps.ring.ambient, [mono_pow(ps.params[index - 1], power)])
    rest = [p for j, p in enumerate(ps.params) if j != index - 1]
    return validate_sop(ps.ring.quotient(extra), rest)


def find_non_cm_power(ps: ParameterSystem) -> tuple[int, int]:
    """The first (i, s), 1-indexed, with ring/(a_i^s) not CM via the remaining parameters.

    First means the lexicographically least (s, i), which a scan of
    s = 1, 2, ... with an inner loop over i would find.  Here a_i^s =
    x_{v_i}^{s e_i} (see ParameterSystem.variables), so the minimal
    generators of I + (a_i^s) are a_i^s and the minimal generators g of I
    with g_{v_i} < s e_i: the others are multiples of a_i^s, and a_i^s is
    a multiple of no generator of I, as x_{v_i} has no pure power there.
    The remaining parameters are pure powers of the other x_{v_j}, which
    a_i^s does not involve, so by is_cohen_macaulay the quotient is not
    CM exactly when some g with g_{v_i} < s e_i involves another x_{v_j}.
    Over those g, the least such s is s_i = 1 + min floor(g_{v_i} / e_i),
    and the answer is the least (s_i, i).  It exists: a non-CM system
    has a generator involving some x_{v_k}, and with d >= 2 some i is not k.

    >>> R = LocalRing.from_text(("x", "y", "z"), "(x^2, xy^10z^10)")
    >>> find_non_cm_power(validate_sop(R, [R.parse_monomial("y"), R.parse_monomial("z")]))
    (1, 11)
    """
    if len(ps.params) < 2:
        raise ValueError("needs a ring of dimension at least 2")
    if is_cohen_macaulay(ps):
        raise ValueError("the ring is CM; no non-CM parameter power exists")
    variables = ps.variables
    candidates = []
    for i, (v, a) in enumerate(zip(variables, ps.params), start=1):
        exponents = [g[v] for g in ps.ring.defining.gens
                     if any(g[w] for w in variables if w != v)]
        if exponents:
            candidates.append((1 + min(exponents) // a[v], i))
    s, i = min(candidates)
    return i, s
