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
from .monomials import Monomial, MonomialIdeal, mono_mul
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
    over.  The monomial basis is enumerated once, at construction.
    """

    ring: LocalRing
    a_ideal: MonomialIdeal
    b_ideal: MonomialIdeal
    numerator: MonomialIdeal
    denominator: MonomialIdeal
    base: LocalRing
    _basis: tuple[Monomial, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        C = self.numerator
        basis = tuple(u for u in self.denominator.standard_monomials() if u in C)
        object.__setattr__(self, "_basis", basis)

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
        cell or in B.

        >>> from .rings import LocalRing, validate_sop
        >>> R = LocalRing.from_text(("x", "y"), "(x^2, xy^3)")
        >>> ps = validate_sop(R, [R.parse_monomial("y^2")])
        >>> build_hom(ps, [3]).components()
        ((0, 1), (2, 3))
        """
        basis = self._basis
        index = {u: i for i, u in enumerate(basis)}
        uf = UnionFind(len(basis))
        for i, u in enumerate(basis):
            for v in range(len(u)):
                j = index.get(u[:v] + (u[v] + 1,) + u[v + 1:])
                if j is not None:
                    uf.union(i, j)
        return uf.blocks()

    def minimal_generator_count(self) -> int:
        """dim_k of C/(𝔪C + B): monomial generators stay k-independent."""
        V = self.ring.maximal_ideal * self.numerator + self.denominator
        return sum(1 for g in self.numerator.gens if not V.contains(g))

    def is_cyclic(self) -> bool:
        return self.minimal_generator_count() == 1

    def base_length(self) -> int:
        return self.base.length()

    def is_free_over_base(self) -> bool:
        """Free iff length equals mu * length(S).

        The minimal free cover S^mu surjects onto the module; over the
        Artinian local base, equality of finite lengths forces the cover
        to be an isomorphism, so this test is exact in both directions.
        """
        return self.length() == self.minimal_generator_count() * self.base_length()

    def presentation(self, prime: int, cap: int = PRESENTATION_CAP) -> FinitePresentation:
        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        basis = self._basis
        if len(basis) > cap:
            raise ValueError(f"presentation basis {len(basis)} exceeds cap {cap}")
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
        """A monomial nonzero in S that multiplies C into B, if one exists.

        Such an element annihilates the whole Hom module, and a free
        module over S is faithful, so a witness proves non-freeness.
        """
        B = self.denominator
        gens = self.numerator.gens
        for u in self.base.defining.standard_monomials():
            if all(e == 0 for e in u):
                continue
            if all(B.contains(mono_mul(u, g)) for g in gens):
                return u
        return None


def _subquotient(ring: LocalRing, a_ideal: MonomialIdeal, b_ideal: MonomialIdeal) -> HomSubquotient:
    B = ring.defining + b_ideal
    if not B.is_finite_colength():
        raise ValueError("quotient by b is not Artinian")
    C = B.colon(a_ideal)
    base_ideal = ring.defining + a_ideal
    if not base_ideal.is_finite_colength():
        raise ValueError("base ring R/(a + I) is not Artinian")
    base = LocalRing(ring.variables, base_ideal)
    Q = HomSubquotient(ring, a_ideal, b_ideal, C, B, base)
    assert C.contains_ideal(B)
    assert B.contains_ideal(C * a_ideal)
    return Q


def hom_from_ideals(ring: LocalRing, a_ideal: MonomialIdeal, b_ideal: MonomialIdeal) -> HomSubquotient:
    """Hom_R(R/𝔞, R/(I+𝔟)) for explicit ideals, no parameter validation.

    Used for the radical-transfer checks where 𝔞 need not come from the
    ring's own system of parameters.
    """
    if a_ideal.is_zero():
        raise ValueError("a must be nonzero")
    return _subquotient(ring, a_ideal, b_ideal)


def build_hom(ps: ParameterSystem, b_spec) -> HomSubquotient:
    """Hom_R(R/𝔞, R/𝔟R) for 𝔞 = ps and 𝔟 given as powers or monomials.

    b_spec is either a list of integers t_i >= 1, meaning
    𝔟 = (a_1^{t_1}, ..., a_d^{t_d}), or a list of d explicit monomials
    forming a parameter ideal contained in 𝔞.

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
        b_gens = [tuple(e * t for e in a) for a, t in zip(ps.params, spec)]
    elif all(isinstance(t, tuple) for t in spec):
        b_gens = spec
    else:
        raise ValueError("b must be all exponents or all monomials")
    a_ideal = MonomialIdeal(ring.ambient, ps.params)
    for g in b_gens:
        if not ps.ideal.contains(g):
            raise ValueError(f"b generator {ring.fmt(g)} is not inside a")
    validate_sop(ring, b_gens)
    return _subquotient(ring, a_ideal, MonomialIdeal(ring.ambient, b_gens))
