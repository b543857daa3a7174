"""Hom modules of parameter quotients, realized as monomial subquotients.

For a ring R = k[x]/I, a parameter ideal 𝔞 = (a_1..a_d), and 𝔟 ⊆ 𝔞, the
module Hom_R(R/𝔞, R/𝔟R) is the annihilator of 𝔞 inside R/(I+𝔟), that is
C/B for B = I + 𝔟 and C = (B : 𝔞).  build_hom, hom_from_ideals and the
grid's classify_point all read it off B's pure-power box with one pass,
row_intervals: each row's basis cells form one interval, a row holds at
most one generator of C, and rows whose intervals overlap lie in one
component of the action graph.  HomSubquotient keeps that pass and
reads its generators and length off it when built; the length, generator
count, cyclicity, freeness and summand count read those and the pass's
component count, so they list no cell.  The graded-lex basis is built
on first request, for the blocks and the F_p presentation, and so is C;
the annihilator witness reads C's generators outside B instead, the
verifiers' split identities and summand lengths read the pass's
intervals, and the grid reads the pass's counts alone.
"""

from __future__ import annotations

from functools import cached_property
from operator import add
from typing import TYPE_CHECKING, NamedTuple

from .monomials import Monomial, MonomialIdeal, _ideal, grlex_key, mono_mul, row_thresholds
from .rings import LocalRing, ParameterSystem, _Value, validate_sop

if TYPE_CHECKING:
    from .oracle import FinitePresentation

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

    def union(self, a: int, b: int) -> bool:
        """Join the sets of a and b; True when they were two sets."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The sets as sorted tuples, ordered by their first element."""
        groups: dict[int, list[int]] = {}
        for v in range(len(self.parent)):
            groups.setdefault(self.find(v), []).append(v)
        return tuple(sorted(tuple(g) for g in groups.values()))


class RowScan(NamedTuple):
    """row_intervals' answer for one box.

    spans maps each row p holding basis cells, in product order, to
    (lo(p), f(p), i): its interval of basis cells (p, k), lo(p) <= k <
    f(p), and i, the row's index in blocks.  heads are the rows, in
    product order, whose cell (p, lo(p)) is a minimal generator of C
    outside B.  blocks joins the rows of one component of the one-step
    action graph, and count is the number of components.
    """

    spans: dict[Monomial, tuple[int, int, int]]
    heads: list[Monomial]
    blocks: UnionFind
    count: int


class HomSubquotient(_Value):
    """Hom_R(R/𝔞, R/𝔟R) presented as C/B with its Artinian base ring.

    denominator is B = I + 𝔟, numerator is C = (B : 𝔞), and base is
    S = k[x]/(I + 𝔞), which stores its own length.  The builders pass
    row_intervals' answer for B's box, rows.

    Construction keeps rows, takes the first cell of each head row as C's
    generators outside B, and counts the length as the sum of the
    intervals' widths.  C is B plus those generators, so B ⊆ C by
    construction, and C·𝔞 ⊆ B is checked on them alone, as B is an ideal;
    construction raises AssertionError, also under ``python -O``, when it
    fails.  The basis, the intervals' cells sorted into graded-lex order,
    and numerator are built on first request and then kept; length,
    generator count, cyclicity, freeness and decide's summand count never
    build them.  A module is immutable, and ==, hash and repr read ring,
    a_ideal, b_ideal, denominator and base alone: not rows, the cached
    basis or numerator, as C is determined by B and 𝔞, which they compare.
    """

    def __init__(self, ring: LocalRing, a_ideal: MonomialIdeal, b_ideal: MonomialIdeal,
                 denominator: MonomialIdeal, base: LocalRing, rows: RowScan):
        spans = rows.spans
        gens = tuple(p + (spans[p][0],) for p in rows.heads)
        if not all(denominator.contains(mono_mul(g, h)) for g in gens for h in a_ideal.gens):
            raise AssertionError("the numerator times a is not inside the denominator")
        self.__dict__.update(ring=ring, a_ideal=a_ideal, b_ideal=b_ideal, denominator=denominator,
                             base=base, rows=rows, _generators=gens,
                             _length=sum(hi - lo for lo, hi, _ in spans.values()))

    def _key(self) -> tuple:
        return self.ring, self.a_ideal, self.b_ideal, self.denominator, self.base

    def __repr__(self) -> str:
        return (f"HomSubquotient(ring={self.ring!r}, a_ideal={self.a_ideal!r}, "
                f"b_ideal={self.b_ideal!r}, denominator={self.denominator!r}, "
                f"base={self.base!r})")

    @cached_property
    def numerator(self) -> MonomialIdeal:
        """C = (B : 𝔞), that is B plus the generators outside B; built on first read."""
        B = self.denominator
        return _ideal(B.ambient, B.gens + self._generators)

    @cached_property
    def _basis(self) -> tuple[Monomial, ...]:
        cells = [p + (k,) for p, (lo, hi, _) in self.rows.spans.items() for k in range(lo, hi)]
        return tuple(sorted(cells, key=grlex_key))

    def basis(self) -> tuple[Monomial, ...]:
        """Standard monomials of B lying in C, in graded-lex order; listed on the first call."""
        return self._basis

    def length(self) -> int:
        return self._length

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the one-step action graph on the basis.

        Basis cells u and u*x_i are joined whenever u*x_i is not in B.
        Blocks are sorted tuples of basis indices, ordered by their first
        index, so this lists the basis.  C is an ideal, so u*x_i lies in
        C and is either a basis cell or in B.  row_intervals joined the
        rows of each component, so a cell's block is its row's.  Reading
        the graded-lex basis in order lists each block's indices in order,
        and the blocks by their first index.

        >>> from .rings import LocalRing, validate_sop
        >>> R = LocalRing.from_text(("x", "y"), "(x^2, xy^3)")
        >>> ps = validate_sop(R, [R.parse_monomial("y^2")])
        >>> build_hom(ps, [3]).components()
        ((0, 1), (2, 3))
        """
        spans, find = self.rows.spans, self.rows.blocks.find
        blocks: dict[int, list[int]] = {}
        for i, u in enumerate(self.basis()):
            blocks.setdefault(find(spans[u[:-1]][2]), []).append(i)
        return tuple(map(tuple, blocks.values()))

    def minimal_generator_count(self) -> int:
        """dim_k of C/(𝔪C + B), which is the number of C's generators outside B.

        A monomial lies in 𝔪C + B exactly when it lies in 𝔪C or in B.  A
        minimal generator g of C is never in 𝔪C, since g = x_i * c with c
        in C would put g/x_i in C.  Every other monomial of C is a
        variable times a monomial of C, so it is in 𝔪C.  So the monomials
        of C outside 𝔪C + B, a k-basis of the quotient, are exactly the
        generators of C outside B.
        """
        return len(self._generators)

    def is_cyclic(self) -> bool:
        return len(self._generators) == 1

    def base_length(self) -> int:
        return self.base.length()

    def is_free_over_base(self) -> bool:
        """Free iff length equals mu * length(S).

        The minimal free cover S^mu surjects onto the module; over the
        Artinian local base, equality of finite lengths forces the cover
        to be an isomorphism, so this test is exact in both directions.
        """
        return self.length() == len(self._generators) * self.base_length()

    def presentation(self, prime: int) -> FinitePresentation:
        """The module as 0/1 action matrices over F_prime, for homdecomp.oracle.

        No runtime route needs a field, so gfp and oracle are imported
        here, when called, and not when this module loads.
        """
        from .gfp import PrimeFieldMatrix, is_prime
        from .oracle import FinitePresentation

        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        basis = self.basis()
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
        is nonzero.  So S is never enumerated.  The colon is taken by G,
        the generators of C outside B, alone: C = B + (G), so (B : C) =
        (B : B) ∩ (B : G) = (B : G), as (B : B) = R.  The zero module has
        no G, is free and gets None.
        """
        gens = self._generators
        if not gens:
            return None
        S = self.base.defining
        B = self.denominator
        for g in B.colon(_ideal(B.ambient, gens)).gens:
            if any(g) and not S.contains(g):
                return g
        return None


def row_intervals(f: dict[Monomial, int], a_gens) -> RowScan:
    """The one pass over the rows of a box that reads C/B: intervals, generators, components.

    f is monomials.row_thresholds(L, bounds) for a monomial ideal L and
    a box [0, bounds_j): for each row p of the box, in product order, the
    cells (p, k) outside L are k < f(p).  Here B = L + (x_j^{bounds_j})
    and C = (B : 𝔞) for 𝔞 generated by a_gens.  The box holds every
    monomial outside B, the cells outside L, and such a cell u is in C
    when, for each g in a_gens, u·g leaves the box or lies in L.  The
    answer is a RowScan.

    Intervals.  Write a cell u = (p, k), with p its first n - 1
    exponents, and g = (g', g_n).  For g in a_gens, pure power or not,
    u·g = (p + g', k + g_n) leaves the box for every k when p + g' is no
    row of f, and otherwise lies outside B exactly when k + g_n <
    f(p + g').  So each g adds one lower bound k >= f(p + g') - g_n, and
    the row's basis cells are the interval [lo(p), f(p)), lo(p) the
    largest of those bounds and 0.  A power x_n^e of the last variable
    has g' = 0 and gives f(p) - e, read off the row itself; a pure power
    x_v^e of another variable gives f(p + e·x_v) while p_v + e <
    bounds_v.  f does not rise along a variable, as L is an ideal, and
    every row p + g' gives q + g' for q = p - x_v, so lo(p) <= lo(q) <
    f(q) whenever q holds basis cells.

    Generators.  A basis cell u is a minimal generator of C when no
    u / x_v is a basis cell: u / x_v in C but not a basis cell would lie
    in B, and then so would u.  In a row, (p, k - 1) is a basis cell for
    every k > lo(p), so only (p, lo(p)) can be a minimal generator, and
    it is one unless lo(p) lies in the interval of some row q = p - x_v,
    that is, as lo(p) < f(q), unless lo(q) <= lo(p).

    Components.  The one-step action graph joins basis cells u and u·x_v.
    For v the last variable these are neighbours in one row's interval,
    so each row's cells are connected.  For another v, (q, k) and
    (p, k) are both basis cells exactly when k lies in both rows'
    intervals, which, as lo(p) < f(q), overlap exactly when lo(q) < f(p).
    So the components of the cells are those of the graph on rows that
    joins q and p when lo(q) < f(p), and the pass joins each row to its
    neighbours q, which come before it in product order.

    hom_from_ideals passes the table of L = B over B's pure powers.
    build_hom and classify_point pass L = I over parameter_box's bounds,
    since B is then I plus the pure powers x_{v_i}^{f_i}: b_exponents
    proves that every accepted 𝔟 is one.  theorems.classify_grid passes
    a slice of one table built for the whole grid.

    >>> f = row_thresholds(MonomialIdeal(2, [(2, 0), (1, 2)]), [2, 4])   # (x^2, xy^2)
    >>> f
    {(0,): 4, (1,): 2}
    >>> rows = row_intervals(f, [(0, 2)])
    >>> rows.spans, rows.heads, rows.count
    ({(0,): (2, 4, 0), (1,): (0, 2, 1)}, [(0,), (1,)], 2)
    >>> row_intervals(f, [(0, 3)]).count
    1
    """
    shifts = [(g[:-1], g[-1]) for g in a_gens if any(g[:-1])]
    top = min((g[-1] for g in a_gens if not any(g[:-1])), default=None)
    spans = {}
    heads = []
    blocks = UnionFind(len(f))
    count = 0
    for i, (p, hi) in enumerate(f.items()):
        lo = hi - top if top is not None and hi > top else 0
        for q, e in shifts:
            bound = f.get(tuple(map(add, p, q)))
            if bound is not None and bound - e > lo:
                lo = bound - e
        if lo >= hi:
            continue
        spans[p] = lo, hi, i
        count += 1
        head = True
        for v, e in enumerate(p):
            if e:
                span = spans.get(p[:v] + (e - 1,) + p[v + 1:])
                if span and span[0] < hi:
                    if span[0] <= lo:
                        head = False
                    if blocks.union(i, span[2]):
                        count -= 1
        if head:
            heads.append(p)
    return RowScan(spans, heads, blocks, count)


def b_exponents(ps: ParameterSystem, b_spec) -> list[int]:
    """𝔟's exponent vector f, in parameter order: 𝔟 = (x_{v_i}^{f_i}) with f >= e.

    Here a_i = x_{v_i}^{e_i} (ParameterSystem.variables, which raises
    ValueError naming a parameter that is not a pure power of a variable
    free in I and in the other parameters).  b_spec is a list of integers
    t_i >= 1, meaning 𝔟 = (a_i^{t_i}), or of d monomials forming a
    parameter ideal inside 𝔞.  Powers give f = e∘t and need no
    validation: 𝔟 ⊆ 𝔞 has d non-unit generators and each a_i lies in its
    radical, so 𝔟 is a system of parameters as 𝔞 is.

    Monomials are read in closed form by _monomial_exponents, which
    accepts 𝔟 when it has d = dim R generators, each x_{v_i}^{f_i} with
    f_i >= e_i an integer for a distinct parameter a_i, and I has a pure
    power of every other variable.  This is exactly what the full check,
    membership in 𝔞 + I and validate_sop, accepts, so that check runs
    only to word the error for a 𝔟 the closed form refuses.  Such a 𝔟
    passes it: each x_{v_i}^{f_i} is a multiple of a_i, so it lies in 𝔞;
    and it has d generators of ambient length, integer exponents, none
    the unit, and I + 𝔟 holds a pure power of every variable, so
    validate_sop accepts it.  Conversely, validate_sop makes each
    generator of an accepted 𝔟 a pure power x_w^f of a distinct variable
    free in I, that is with no pure power in I (ParameterSystem.variables,
    read on 𝔟's system).  So x_w^f is not in I, and as it lies in 𝔞 + I,
    some a_i = x_{v_i}^{e_i} divides it: w = v_i and f >= e_i.  A
    parameter whose variable no generator of 𝔟 uses would leave that
    variable, free in I, without a pure power in I + 𝔟, which
    validate_sop refuses; so 𝔟 has one generator per parameter, d of
    them.  A ps whose parameters are not such pure powers is refused by
    the closed form, and the full check then raises
    ParameterSystem.variables' error.

    So every 𝔟 accepted over a validated system, as powers or as
    monomials, is (x_{v_i}^{f_i}) with f >= e, and B = I + 𝔟 is I plus
    pure powers, whose box parameter_box(ps, f) gives.
    """
    spec = list(b_spec)
    if not spec:
        raise ValueError("b must not be empty")
    if all(type(t) is int for t in spec):  # so a bool is no exponent
        if len(spec) != len(ps.params):
            raise ValueError("need one exponent per parameter")
        if any(t < 1 for t in spec):
            raise ValueError("exponents must be >= 1")
        return [a[v] * t for v, a, t in zip(ps.variables, ps.params, spec)]
    if not all(isinstance(t, tuple) for t in spec):
        raise ValueError("b must be all exponents or all monomials")
    f = _monomial_exponents(ps, spec)
    if f is None:
        for g in spec:
            if not ps.ideal.contains(g):
                raise ValueError(f"b generator {ps.ring.fmt(g)} is not inside a")
        validate_sop(ps.ring, spec)
        ps.variables  # raises the error the closed form refused on
        raise AssertionError("the closed form refused a b that validate_sop accepts")
    return f


def _monomial_exponents(ps: ParameterSystem, spec: list) -> list[int] | None:
    """b_exponents' closed form for monomials 𝔟: f, or None when the full check refuses 𝔟."""
    ring = ps.ring
    if len(spec) != ring.dimension():
        return None
    try:
        slot = {v: i for i, v in enumerate(ps.variables)}
    except ValueError:
        return None
    f = [0] * len(slot)  # 0 until a generator takes the slot, as f_i >= e_i >= 1
    for g in spec:
        if len(g) != ring.ambient or not all(type(e) is int for e in g):
            return None
        support = [v for v, e in enumerate(g) if e]
        if len(support) != 1 or support[0] not in slot:
            return None
        v = support[0]
        i = slot[v]
        if f[i] or g[v] < ps.params[i][v]:
            return None
        f[i] = g[v]
    if not all(f) or any(e is None and v not in slot for v, e in enumerate(ring._pure_powers)):
        return None
    return f


def parameter_box(ps: ParameterSystem, f) -> list[int]:
    """The box of B = I + (x_{v_i}^{f_i}), for f as b_exponents gives it.

    Its bounds are I's pure powers, kept on the ring, and f_i on each
    parameter's variable x_{v_i}; this is the one place a parameter
    system's box is formed.  A variable left without a bound (B of
    infinite colength) raises ValueError.
    """
    bounds = list(ps.ring._pure_powers)
    for v, e in zip(ps.variables, f):
        bounds[v] = e
    if None in bounds:
        raise ValueError("quotient by b is not Artinian")
    return bounds


def _b_ideal(ps: ParameterSystem, f) -> MonomialIdeal:
    """𝔟 = (x_{v_i}^{f_i}) for the exponent vector f."""
    n = ps.ring.ambient
    return _ideal(n, [tuple(e if w == v else 0 for w in range(n)) for v, e in zip(ps.variables, f)])


def hom_from_ideals(ring: LocalRing, a_ideal: MonomialIdeal, b_ideal: MonomialIdeal) -> HomSubquotient:
    """Hom_R(R/𝔞, R/(I+𝔟)) for explicit ideals, no parameter validation.

    Used for the radical-transfer checks, where 𝔞 need not be the ring's
    own parameters.  A unit I + 𝔟 is refused: it is the only route to the
    zero module, as over a proper B the socle of R/B is killed by 𝔞 ⊆ 𝔪.
    """
    if a_ideal.is_zero():
        raise ValueError("a must be nonzero")
    if a_ideal.is_unit():
        raise ValueError("a is the unit ideal; the base ring R/(I + a) is zero")
    base_ideal = ring.defining + a_ideal
    if not base_ideal.is_finite_colength():
        raise ValueError("base ring R/(a + I) is not Artinian")
    B = ring.defining + b_ideal
    if B.is_unit():
        raise ValueError("I + b is the unit ideal; the module Hom(R/a, R/(I + b)) is zero")
    bounds = B._pure_powers()
    if None in bounds:
        raise ValueError("quotient by b is not Artinian")
    return HomSubquotient(ring, a_ideal, b_ideal, B, LocalRing(ring.variables, base_ideal),
                          row_intervals(row_thresholds(B, bounds), a_ideal.gens))


def build_hom(ps: ParameterSystem, b_spec) -> HomSubquotient:
    """Hom_R(R/𝔞, R/𝔟R) for 𝔞 = ps and 𝔟 given as powers or monomials.

    b_exponents reads 𝔟 as its exponent vector f, 𝔟 = (x_{v_i}^{f_i}),
    and row_intervals reads the module off the row table of L = I over
    parameter_box's box at f.  𝔞 and the base ring S come from ps, and S
    stores its length, so neither is rebuilt and S is not recounted for
    each module.

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
    f = b_exponents(ps, b_spec)
    b_ideal = _b_ideal(ps, f)
    rows = row_intervals(row_thresholds(ring.defining, parameter_box(ps, f)), ps.params)
    return HomSubquotient(ring, ps.a_ideal, b_ideal, ring.defining + b_ideal, ps.base, rows)
