"""Hom modules of parameter quotients, realized as monomial subquotients.

For a ring R = k[x]/I, a parameter ideal 𝔞 = (a_1..a_d), and 𝔟 ⊆ 𝔞, the
module Hom_R(R/𝔞, R/𝔟R) is the annihilator of 𝔞 inside R/(I+𝔟), that is
C/B for B = I + 𝔟 and C = (B : 𝔞).  Everything downstream (length, number
of generators, freeness, the action graph the decomposition verdict
reads) reads off this pair of monomial ideals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gfp import PrimeFieldMatrix, is_prime
from .monomials import Monomial, MonomialIdeal, mono_mul, mono_pow, monomials_between
from .rings import LocalRing, ParameterSystem, validate_sop

PRESENTATION_CAP = 512


class UnionFind:
    """Disjoint sets over 0..n-1 with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The sets as sorted tuples, ordered by their first element."""
        groups: dict[int, list[int]] = {}
        for v in range(len(self.parent)):
            groups.setdefault(self.find(v), []).append(v)
        return tuple(sorted(tuple(g) for g in groups.values()))


def action_blocks(basis) -> tuple[tuple[int, ...], ...]:
    """Connected components of the one-step action graph on a monomial basis.

    Cells u and u*x_i of basis are joined.  Blocks are sorted tuples of
    indices into basis, ordered by their first index.  This is the one
    union-find behind both HomSubquotient.components and the grid's
    classify_point.

    >>> action_blocks([(0, 1), (1, 0), (1, 1), (0, 3)])
    ((0, 1, 2), (3,))
    """
    index = {u: i for i, u in enumerate(basis)}
    uf = UnionFind(len(basis))
    for i, u in enumerate(basis):
        for v in range(len(u)):
            j = index.get(u[:v] + (u[v] + 1,) + u[v + 1:])
            if j is not None:
                uf.union(i, j)
    return uf.blocks()


@dataclass(frozen=True)
class FinitePresentation:
    """A finite-length module as commuting 0/1 action matrices over F_p.

    basis[j] * x_i equals basis[row] exactly when actions[i][row][j] is 1;
    otherwise the product falls into the denominator ideal and the entry
    column is zero.
    """

    basis: tuple[Monomial, ...]
    actions: tuple[PrimeFieldMatrix, ...]
    prime: int
    variables: tuple[str, ...]

    @property
    def module_dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class HomSubquotient:
    """Hom_R(R/𝔞, R/𝔟R) presented as C/B with its Artinian base ring.

    base is S = k[x]/(I + 𝔞), the ring the freeness questions quantify
    over; S stores its own length.  The monomial basis and the generator
    count are computed once, at construction: the basis by walking up
    from C's generators outside B (monomials_between), so B's pure-power
    box is never scanned.  A generator of C lies outside B exactly when
    it is a basis cell, so one scan of C's generators against the basis
    gives both the count and the generators on which C·𝔞 ⊆ B is
    checked; the other generators lie in B, and B is an ideal.
    Construction raises AssertionError, also under ``python -O``, when
    B ⊄ C or C·𝔞 ⊄ B.
    """

    ring: LocalRing
    a_ideal: MonomialIdeal
    b_ideal: MonomialIdeal
    numerator: MonomialIdeal
    denominator: MonomialIdeal
    base: LocalRing
    _basis: tuple[Monomial, ...] = field(init=False, repr=False, compare=False)
    _generator_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        B, C = self.denominator, self.numerator
        if not C.contains_ideal(B):
            raise AssertionError("the denominator is not inside the numerator")
        basis = tuple(monomials_between(C, B))
        cells = set(basis)
        outside = [g for g in C.gens if g in cells]
        if not all(B.contains(mono_mul(g, h)) for g in outside for h in self.a_ideal.gens):
            raise AssertionError("the numerator times a is not inside the denominator")
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_generator_count", len(outside))

    def basis(self) -> tuple[Monomial, ...]:
        """Standard monomials of B lying in C, in graded-lex order."""
        return self._basis

    def length(self) -> int:
        return len(self._basis)

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the one-step action graph on the basis.

        Basis cells u and u*x_i are joined whenever u*x_i is not in B.
        Blocks are sorted tuples of basis indices, ordered by their first
        index.  C is an ideal, so u*x_i lies in C and is either a basis
        cell or in B; so action_blocks on the basis finds them.

        >>> from .rings import LocalRing, validate_sop
        >>> R = LocalRing.from_text(("x", "y"), "(x^2, xy^3)")
        >>> ps = validate_sop(R, [R.parse_monomial("y^2")])
        >>> build_hom(ps, [3]).components()
        ((0, 1), (2, 3))
        """
        return action_blocks(self._basis)

    def minimal_generator_count(self) -> int:
        """dim_k of C/(𝔪C + B), which is the number of C's generators outside B.

        Those generators are the ones among the basis cells, counted once
        at construction.

        A monomial lies in 𝔪C + B exactly when it lies in 𝔪C or in B.  A
        minimal generator g of C is never in 𝔪C, since g = x_i * c with c
        in C would put g/x_i in C.  Every other monomial of C is a
        variable times a monomial of C, so it is in 𝔪C.  So the monomials
        of C outside 𝔪C + B, a k-basis of the quotient, are exactly the
        generators of C outside B.
        """
        return self._generator_count

    def is_cyclic(self) -> bool:
        return self._generator_count == 1

    def base_length(self) -> int:
        return self.base.length()

    def is_free_over_base(self) -> bool:
        """Free iff length equals mu * length(S).

        The minimal free cover S^mu surjects onto the module; over the
        Artinian local base, equality of finite lengths forces the cover
        to be an isomorphism, so this test is exact in both directions.
        """
        return self.length() == self._generator_count * self.base_length()

    def presentation(self, prime: int) -> FinitePresentation:
        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        basis = self._basis
        if len(basis) > PRESENTATION_CAP:
            raise ValueError(f"presentation basis {len(basis)} exceeds cap {PRESENTATION_CAP}")
        index = {u: i for i, u in enumerate(basis)}
        n = self.ring.ambient
        actions = []
        for v in range(n):
            step = tuple(1 if k == v else 0 for k in range(n))
            rows = [[0] * len(basis) for _ in range(len(basis))]
            for j, u in enumerate(basis):
                w = mono_mul(u, step)
                i = index.get(w)
                if i is not None:
                    rows[i][j] = 1
                elif not self.denominator.contains(w):
                    raise AssertionError("action left the subquotient")
            actions.append(PrimeFieldMatrix(rows, prime))
        return FinitePresentation(basis, tuple(actions), prime, self.ring.variables)

    def non_free_annihilator_witness(self) -> Monomial | None:
        """The grlex-least monomial other than 1, nonzero in S, that multiplies C into B.

        Such an element annihilates the whole Hom module, and a free
        module over S is faithful, so a witness proves non-freeness.  It
        is the first generator of (B : C) that is not 1 and not in I + 𝔞:
        were it x_i * v with v in (B : C), then v would be smaller, also
        nonzero in S, and not 1, since C is not inside B when the module
        is nonzero.  So S is never enumerated.  The zero module is free
        and gets None.
        """
        S = self.base.defining
        for g in self.denominator.colon(self.numerator).gens:
            if any(g) and not S.contains(g):
                return g
        return None


def _subquotient(ring: LocalRing, a_ideal: MonomialIdeal, b_ideal: MonomialIdeal,
                 base: LocalRing) -> HomSubquotient:
    """C/B for B = I + 𝔟 and C = (B : 𝔞), over the given base ring R/(I + 𝔞).

    B must have finite colength, and a B whose pure-power box has more
    than LENGTH_CAP cells is refused with CapExceeded.
    """
    B = ring.defining + b_ideal
    try:
        B.box_bounds()
    except ValueError:
        raise ValueError("quotient by b is not Artinian") from None
    return HomSubquotient(ring, a_ideal, b_ideal, B.colon(a_ideal), B, base)


def hom_from_ideals(ring: LocalRing, a_ideal: MonomialIdeal, b_ideal: MonomialIdeal) -> HomSubquotient:
    """Hom_R(R/𝔞, R/(I+𝔟)) for explicit ideals, no parameter validation.

    Used for the radical-transfer checks where 𝔞 need not come from the
    ring's own system of parameters.
    """
    if a_ideal.is_zero():
        raise ValueError("a must be nonzero")
    if a_ideal.is_unit():
        raise ValueError("a is the unit ideal; the base ring R/(I + a) is zero")
    base_ideal = ring.defining + a_ideal
    if not base_ideal.is_finite_colength():
        raise ValueError("base ring R/(a + I) is not Artinian")
    return _subquotient(ring, a_ideal, b_ideal, LocalRing(ring.variables, base_ideal))


def build_hom(ps: ParameterSystem, b_spec) -> HomSubquotient:
    """Hom_R(R/𝔞, R/𝔟R) for 𝔞 = ps and 𝔟 given as powers or monomials.

    b_spec is either a list of integers t_i >= 1, meaning
    𝔟 = (a_1^{t_1}, ..., a_d^{t_d}), or a list of d explicit monomials
    forming a parameter ideal contained in 𝔞.  Explicit monomials are
    validated in full.  Powers need no validation: 𝔟 lies in 𝔞, its d
    generators are non-units, and a_i lies in the radical of 𝔟, so
    I + 𝔟 and I + 𝔞 have the same radical and 𝔟 is a system of
    parameters because 𝔞 is.  The ideal 𝔞 and the base ring S come
    from ps, and S stores its length, so neither is rebuilt and S is
    not recounted for each module.

    >>> from .rings import LocalRing, validate_sop
    >>> R = LocalRing.from_text(("x", "y"), "(x^2, xy^2)")
    >>> ps = validate_sop(R, [R.parse_monomial("y")])
    >>> Q = build_hom(ps, [2])
    >>> R.fmt_ideal(Q.denominator), R.fmt_ideal(Q.numerator)
    ('(x^2, y^2)', '(y, x^2)')
    >>> Q.length(), Q.minimal_generator_count(), Q.is_free_over_base()
    (2, 1, True)
    """
    ring = ps.ring
    spec = list(b_spec)
    if not spec:
        raise ValueError("b must not be empty")
    if all(isinstance(t, int) for t in spec):
        if len(spec) != len(ps.params):
            raise ValueError("need one exponent per parameter")
        if any(t < 1 for t in spec):
            raise ValueError("exponents must be >= 1")
        b_gens = [mono_pow(a, t) for a, t in zip(ps.params, spec)]
    elif all(isinstance(t, tuple) for t in spec):
        b_gens = spec
        for g in b_gens:
            if not ps.ideal.contains(g):
                raise ValueError(f"b generator {ring.fmt(g)} is not inside a")
        validate_sop(ring, b_gens)
    else:
        raise ValueError("b must be all exponents or all monomials")
    return _subquotient(ring, ps.a_ideal, MonomialIdeal(ring.ambient, b_gens), ps.base)
