"""Shared oracle helpers for the test suite.

The oracles here are deliberately naive: bounded enumeration and brute
force linear algebra, independent of the implementation under test.
"""

from __future__ import annotations

from itertools import product as cartesian
from operator import lt

from hypothesis import assume
from hypothesis import strategies as st

from homdecomp import theorems
from homdecomp.hom import build_hom, hom_from_ideals
from homdecomp.monomials import MonomialIdeal, grlex_key, mono_mul, mono_pow, monomials_between
from homdecomp.rings import LocalRing, gamma_m, reduced_system, stabilization_index, validate_sop


def enumerate_monomials(ambient: int, max_exp: int):
    """Every exponent vector with all entries <= max_exp."""
    return [u for u in cartesian(range(max_exp + 1), repeat=ambient)]


def random_ideal(rng, ambient: int, max_gens: int = 4, max_exp: int = 4) -> MonomialIdeal:
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        gens.append(tuple(rng.randint(0, max_exp) for _ in range(ambient)))
    return MonomialIdeal(ambient, gens)


def random_proper_ideal(rng, ambient: int, max_gens: int = 4, max_exp: int = 4) -> MonomialIdeal:
    while True:
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            g = tuple(rng.randint(0, max_exp) for _ in range(ambient))
            if sum(g) > 0:
                gens.append(g)
        if gens:
            return MonomialIdeal(ambient, gens)


def oracle_colon_member(I: MonomialIdeal, J: MonomialIdeal, u) -> bool:
    """u is in (I : J) iff u*h lands in I for every generator h of J."""
    return all(I.contains(mono_mul(u, h)) for h in J.gens)


def reference_colon(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """(I : J) = intersection of (I : g) over the generators of J.

    The pairwise-intersection colon that MonomialIdeal.colon replaced,
    kept as a reference: each (I : g) is a full ideal, and the pieces
    are intersected by pairwise lcms.
    """
    I._check_compatible(J)
    if J.is_zero():
        raise ValueError("colon by the zero ideal is undefined")
    out = None
    for g in J.gens:
        piece = I.colon_monomial(g)
        out = piece if out is None else out.intersect(piece)
    return out


def oracle_saturation_member(I: MonomialIdeal, J: MonomialIdeal, u,
                             max_steps: int | None = None) -> bool:
    """u is in (I : J^infinity) iff some power of J multiplies u into I.

    The default bound is len(J.gens) * M for M the top exponent of I: a
    member u has u * h^M in I for every generator h of J, and a product
    of that many generators repeats some h at least M times.
    """
    if max_steps is None:
        max_steps = max(1, len(J.gens) * max((max(g) for g in I.gens), default=0))
    frontier = {u}
    for _ in range(max_steps):
        if all(I.contains(w) for w in frontier):
            return True
        frontier = {mono_mul(w, h) for w in frontier for h in J.gens if not I.contains(w)}
    return all(I.contains(w) for w in frontier)


def oracle_saturation_fixpoint(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """(I : J^infinity) by iterating the colon until it stops changing.

    The colon walk that MonomialIdeal.saturation replaced, kept as an
    oracle.  After k steps the walk holds (I : J^k), which is the
    saturation once k reaches len(J.gens) * M for M the top exponent of I
    (see oracle_saturation_member), so one more step finds the fixpoint.
    """
    bound = max(1, len(J.gens) * max((max(g) for g in I.gens), default=0))
    current = I
    for _ in range(bound + 1):
        step = current.colon(J)
        if step == current:
            return current
        current = step
    raise AssertionError(f"the colon walk did not settle within {bound + 1} steps")


def ideal_power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """I^k by repeated products, for the m^n stabilization oracles; I^0 is the unit ideal."""
    out = MonomialIdeal.unit(I.ambient)
    for _ in range(k):
        out = out * I
    return out


def brute_force_box_count(I: MonomialIdeal) -> int:
    """Count monomials outside I inside the pure-power box, by direct loops."""
    bounds = []
    for i in range(I.ambient):
        pures = [g[i] for g in I.gens
                 if g[i] > 0 and all(e == 0 for j, e in enumerate(g) if j != i)]
        bounds.append(min(pures))
    count = 0
    for u in cartesian(*(range(b) for b in bounds)):
        if not I.contains(u):
            count += 1
    return count


def oracle_monomials_between(upper: MonomialIdeal, lower: MonomialIdeal):
    """The monomials of upper outside lower, by filtering a box; None if infinitely many.

    With M the largest exponent of any generator of either ideal, capping
    an exponent above M at M + 1 changes membership in neither ideal.  So
    the set is infinite exactly when the box [0, M+1]^n holds a member
    with an exponent M + 1, and otherwise it lies in the box [0, M]^n.
    """
    top = max((e for g in upper.gens + lower.gens for e in g), default=0)
    members = [u for u in enumerate_monomials(upper.ambient, top + 1)
               if upper.contains(u) and not lower.contains(u)]
    if any(top + 1 in u for u in members):
        return None
    return sorted(members, key=grlex_key)


def oracle_annihilator_witness(Q, numerator=None):
    """The grlex-least monomial other than 1, nonzero in S, with u * C inside B.

    Scans the standard monomials of S = R/(I + a) in graded-lex order.  C
    is numerator, Q.numerator by default.
    """
    B = Q.denominator
    C = Q.numerator if numerator is None else numerator
    for u in Q.base.defining.standard_monomials():
        if any(u) and all(B.contains(mono_mul(u, g)) for g in C.gens):
            return u
    return None


def colon_route(a_ideal: MonomialIdeal, B: MonomialIdeal):
    """C = (B : a), the basis of C/B and the count of C's generators outside B.

    The construction the box kernel replaced, kept as an oracle: the
    colon by MonomialIdeal.colon, and the basis by walking up from C's
    generators with monomials_between, in graded-lex order.
    """
    C = B.colon(a_ideal)
    return C, monomials_between(C, B), sum(1 for g in C.gens if not B.contains(g))


def oracle_split_identities(Q, gen, tors: MonomialIdeal):
    """The splitting checks behind 3.1 and 3.3, on ideals built in full.

    The construction theorems._check_split replaced, kept as an oracle.
    With B = Q.denominator, C = Q.numerator and L = (gen) + I, returns
    whether C = L + tors, whether B = L ∩ (tors + B), and the lengths of
    L/B and (tors + B)/B, listed by monomials_between from the built
    ideals.  Sums concatenate generators and minimalize, so they do not
    go through MonomialIdeal.__add__.
    """
    def ideal_sum(J, K):
        return MonomialIdeal(J.ambient, J.gens + K.gens)

    B = Q.denominator
    left = ideal_sum(MonomialIdeal(Q.ring.ambient, [gen]), Q.ring.defining)
    upper = ideal_sum(tors, B)
    lengths = [len(monomials_between(left, B)), len(monomials_between(upper, B))]
    return Q.numerator == ideal_sum(left, tors), B == left.intersect(upper), lengths


def oracle_box_basis(in_L, bounds, a_gens):
    """The basis cells of C/B and C's generators outside B, one membership test per cell.

    The per-cell scan that hom.row_intervals' row scan replaced, kept as
    an oracle.  B = L + (x_j^{bounds_j}) for the membership test in_L of L,
    and C = (B : a) for a generated by a_gens.  Every cell of the box
    outside L is tested: for a pure power x_v^e by one shifted
    membership test, for any other generator by the full product.  The
    cells come in product order; a basis cell is a minimal generator of
    C when no u / x_v is a basis cell.
    """
    steps, others = [], []
    for g in a_gens:
        support = [v for v, e in enumerate(g) if e]
        if len(support) == 1:
            v = support[0]
            steps.append((v, g[v], bounds[v] - g[v]))
        else:
            others.append(g)
    basis = []
    for u in cartesian(*map(range, bounds)):
        if in_L(u):
            continue
        for v, e, low in steps:
            if u[v] < low and not in_L(u[:v] + (u[v] + e,) + u[v + 1:]):
                break
        else:
            for g in others:
                w = mono_mul(u, g)
                if all(map(lt, w, bounds)) and not in_L(w):
                    break
            else:
                basis.append(u)
    cells = set(basis)
    generators = tuple(u for u in basis
                       if not any(u[v] and u[:v] + (u[v] - 1,) + u[v + 1:] in cells
                                  for v in range(len(u))))
    return basis, generators


def box_basis(rows):
    """The basis cells of a hom.row_intervals answer, in product order, and C's generators outside B.

    The cell listing that hom.box_basis did before HomSubquotient read the
    row scan itself: each row's interval of cells, row by row, and the
    first cell of each head row.
    """
    spans = rows.spans
    cells = [p + (k,) for p, (lo, hi, _) in spans.items() for k in range(lo, hi)]
    return cells, tuple(p + (spans[p][0],) for p in rows.heads)


def action_blocks(basis):
    """Connected components of the one-step action graph on a monomial basis, one cell at a time.

    Cells u and u*x_i of basis are joined.  Blocks are sorted tuples of
    indices into basis, ordered by their first index.  The per-cell
    search that hom.row_intervals' row components replaced, kept as an
    oracle; it walks the graph from each unseen cell and shares no code
    with hom.UnionFind.
    """
    index = {u: i for i, u in enumerate(basis)}
    seen = [False] * len(basis)
    blocks = []
    for start in range(len(basis)):
        if seen[start]:
            continue
        seen[start] = True
        stack, block = [start], []
        while stack:
            i = stack.pop()
            block.append(i)
            u = basis[i]
            for v in range(len(u)):
                for step in (1, -1):
                    j = index.get(u[:v] + (u[v] + step,) + u[v + 1:])
                    if j is not None and not seen[j]:
                        seen[j] = True
                        stack.append(j)
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def is_zero_element(ring: LocalRing, u) -> bool:
    """u is zero in the ring: the defining ideal contains it."""
    return ring.defining.contains(u)


def oracle_depth_is_zero(ring: LocalRing) -> bool:
    """Depth zero by the socle route: (I : m) ≠ I, with no saturation.

    Depth zero means m is associated to R = k[x]/I, that is a non-zero
    socle (I : m)/I.  rings.depth_is_zero reads it off Γ_m(R) instead.
    """
    I = ring.defining
    return I.colon(ring.maximal_ideal) != I


def gamma_monomial_basis(ring: LocalRing):
    """All monomials in the saturation but not in I; a k-basis of the torsion.

    The torsion module has finite length, so the walk up from the
    saturation generators terminates; past LENGTH_CAP monomials it raises
    CapExceeded.
    """
    return monomials_between(gamma_m(ring), ring.defining)


def oracle_stabilization_index(ring: LocalRing) -> int:
    """The stabilization index in closed form: one past the top degree of the torsion.

    Γ/I has the monomials of gamma_monomial_basis as a k-basis, and
    (m^n + I) ∩ Γ lies in I exactly when every such monomial has degree
    below n, so the index is 1 + their largest degree, or 0 when Γ = I.
    The runtime index is the loop over m^n that this closed form checks.
    """
    basis = gamma_monomial_basis(ring)
    return 1 + max(map(sum, basis)) if basis else 0


def fresh_corpus_ring() -> LocalRing:
    """A new object equal to the last ring of dim1_corpus(), with nothing read yet.

    dim1_corpus hands out memoized ring objects, so one of them may
    already hold its Γ and index from an earlier test.
    """
    ring = theorems.dim1_corpus()[-1]
    return LocalRing.from_text(ring.variables, ring.fmt_ideal(ring.defining))


def verify_deck_statements(ring: LocalRing) -> list:
    """The eight reports the verify benchmark draws from each corpus ring.

    3.1 with c = 1, a, ..., a^5 and 3.3 with c = 1 and c = a, where a is
    the ring's first monomial parameter.
    """
    a = theorems.first_monomial_parameter(ring)
    reports = [theorems.verify_thm_dim1(ring, a, mono_pow(a, j)) for j in range(6)]
    return reports + [theorems.verify_thm_nonfree(ring, c) for c in (None, a)]


def serialize_ring_spec(spec) -> str:
    """The ring-spec text of a cli.RingSpec, which parse_ring_file reads back as spec."""
    lines = ["ring " + " ".join(spec.variables)]
    if spec.relations:
        lines.append("relations " + " ".join(spec.relations))
    if spec.sop:
        lines.append("sop " + " ".join(spec.sop))
    if spec.seed is not None:
        lines.append(f"seed {spec.seed}")
    return "\n".join(lines) + "\n"


def cm_corpus() -> list:
    """Cohen-Macaulay rings with their full parameter systems."""
    out = []
    R = LocalRing.from_text(("x", "y"), "(0)")
    out.append(validate_sop(R, [R.parse_monomial("x"), R.parse_monomial("y")]))
    R = LocalRing.from_text(("x", "y"), "(x^2)")
    out.append(validate_sop(R, [R.parse_monomial("y")]))
    R = LocalRing.from_text(("x", "y", "z"), "(x^3)")
    out.append(validate_sop(R, [R.parse_monomial("y"), R.parse_monomial("z")]))
    return out


def cm_power_pairs() -> list:
    """(parameter system, exponent vector) pairs for the free-cyclic suite."""
    pairs = []
    for ps in cm_corpus():
        d = len(ps.params)
        for t in cartesian(range(1, 4), repeat=d):
            pairs.append((ps, list(t)))
        squared = validate_sop(ps.ring, [mono_pow(p, 2) for p in ps.params])
        for t in cartesian(range(1, 3), repeat=d):
            pairs.append((squared, list(t)))
    return pairs


def is_regular_element(ring: LocalRing, u) -> bool:
    """u is a non-zerodivisor on the ring, decided by (I : u) = I."""
    if is_zero_element(ring, u):
        raise ValueError(f"element {ring.fmt(u)} is zero in the ring")
    return ring.defining.colon_monomial(u) == ring.defining


def is_regular_sequence(ring: LocalRing, seq) -> bool:
    """Each element regular modulo the previous ones; empty sequences qualify.

    The quotient-ring walk that rings.is_cohen_macaulay replaced, kept as
    an oracle: one colon and one quotient ring per element.
    """
    current = ring
    for u in seq:
        if is_zero_element(current, u):
            raise ValueError(f"element {ring.fmt(u)} becomes zero in an intermediate quotient")
        if not is_regular_element(current, u):
            return False
        current = current.quotient(MonomialIdeal(ring.ambient, [u]))
    return True


def oracle_non_cm_power(ps):
    """The first (i, s) of the scan s = 1, 2, ..., i = 1..d with ring/(a_i^s) not CM.

    The loop that rings.find_non_cm_power replaced, kept as an oracle:
    each candidate is cut by rings.reduced_system and decided by the
    regular-sequence walk.  The scan stops at s = M + 1, M the top
    exponent of I: past it every generator of I escapes a_i^s, as at
    M + 1, so the quotients differ only in a pure power of the cut
    variable, which the walk over the other parameters never divides.
    """
    top = max((max(g) for g in ps.ring.defining.gens), default=0)
    for s in range(1, top + 2):
        for i in range(1, len(ps.params) + 1):
            reduced = reduced_system(ps, i, s)
            if not is_regular_sequence(reduced.ring, list(reduced.params)):
                return i, s
    raise AssertionError(f"no non-CM parameter power with exponent <= {top + 1}")


def monomials_of_degree(nvars: int, deg: int):
    """Every exponent vector of the given degree."""
    if nvars == 1:
        yield (deg,)
        return
    for e in range(deg, -1, -1):
        for rest in monomials_of_degree(nvars - 1, deg - e):
            yield (e,) + rest


def oracle_first_monomial_parameter(ring: LocalRing, max_degree: int = 8):
    """The grlex-least monomial parameter of degree <= max_degree, or None.

    Tries every monomial nonzero in the ring, degree by degree in grlex
    order, and keeps the first one that validate_sop accepts.
    """
    for deg in range(1, max_degree + 1):
        for u in sorted(monomials_of_degree(ring.ambient, deg), key=grlex_key):
            if is_zero_element(ring, u):
                continue
            try:
                validate_sop(ring, [u])
            except ValueError:
                continue
            return u
    return None


@st.composite
def monomial_ideals(draw, ambient: int, max_exp: int = 3, min_gens: int = 0,
                    max_gens: int = 3):
    """A monomial ideal on ambient variables; zero and unit ideals included."""
    exp = st.integers(0, max_exp)
    gens = draw(st.lists(st.tuples(*[exp] * ambient), min_size=min_gens, max_size=max_gens))
    return MonomialIdeal(ambient, gens)


@st.composite
def torsion_ideals(draw, ambient: int):
    """(x^e, x^f y^g, x^h z^k, ...) with f, h < e, plus at most one random generator.

    Without the extra generator k[x]/I has positive dimension and nonzero
    torsion: x^max(f, h) is outside I but in its saturation by m.
    """
    e = draw(st.integers(2, 3))
    gens = [(e,) + (0,) * (ambient - 1)]
    for j in range(1, ambient):
        gens.append(tuple(draw(st.integers(1, e - 1)) if k == 0 else
                          draw(st.integers(1, 3)) if k == j else 0 for k in range(ambient)))
    gens += draw(monomial_ideals(ambient, max_gens=1)).gens
    return MonomialIdeal(ambient, gens)


@st.composite
def local_rings(draw, min_vars: int = 2, max_vars: int = 4):
    """k[x]/I for a proper monomial ideal I on min_vars..max_vars variables.

    Half the draws come from torsion_ideals, so Γ_m(R) ≠ I is common;
    the others are any proper ideal, the zero ideal among them.
    """
    n = draw(st.integers(min_vars, max_vars))
    I = draw(st.one_of(monomial_ideals(n), torsion_ideals(n)))
    assume(not I.is_unit())
    return LocalRing(tuple("xyzw"[:n]), I)


@st.composite
def monomial_homs(draw):
    """Hom(R/a, R/b) on 2-3 variables, length at most 20.

    x^e kills the ring's dimension in the x direction, one or two further
    relations are free to mix the variables (which is where splittings
    come from), a is a power of each remaining variable and b a power of
    each generator of a; a and b may each gain one arbitrary monomial.
    """
    d = draw(st.integers(2, 3))
    top = 6 if d == 2 else 3
    exp = st.integers(0, top)
    pure = lambda i, e: tuple(e if k == i else 0 for k in range(d))  # noqa: E731
    relations = [pure(0, draw(st.integers(1, top)))]
    relations += draw(st.lists(st.tuples(st.integers(1, top), *[exp] * (d - 1)),
                               min_size=1, max_size=2))
    s = draw(st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1))
    t = draw(st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1))
    extra = st.lists(st.tuples(*[exp] * d).filter(any), max_size=1)
    a = [pure(i + 1, si) for i, si in enumerate(s)] + draw(extra)
    b = [pure(i + 1, si * ti) for i, (si, ti) in enumerate(zip(s, t))] + draw(extra)
    ring = LocalRing(tuple("xyz"[:d]), MonomialIdeal(d, relations))
    Q = hom_from_ideals(ring, MonomialIdeal(d, a), MonomialIdeal(d, b))
    assume(Q.length() <= 20)
    return Q


@st.composite
def power_specs(draw):
    """A validated parameter system on 2-3 variables and exponents t_i in 1..3.

    The relations are those of monomial_homs, plus, on three variables,
    possibly a pure power of z, which drops the dimension to one.  The
    variables other than x that lie in no such power are exactly the
    ones without a pure power in I, one per dimension, and the
    parameters are powers of them.
    """
    d = draw(st.integers(2, 3))
    exp = st.integers(0, 3)
    pure = lambda i, e: tuple(e if k == i else 0 for k in range(d))  # noqa: E731
    relations = [pure(0, draw(st.integers(1, 3)))]
    relations += draw(st.lists(st.tuples(st.integers(1, 3), *[exp] * (d - 1)),
                               min_size=1, max_size=2))
    free = list(range(1, d))
    if d == 3 and draw(st.booleans()):
        relations.append(pure(2, draw(st.integers(1, 3))))
        free = [1]
    ring = LocalRing(tuple("xyz"[:d]), MonomialIdeal(d, relations))
    ps = validate_sop(ring, [pure(i, draw(st.integers(1, 3))) for i in free])
    t = draw(st.lists(st.integers(1, 3), min_size=len(free), max_size=len(free)))
    return ps, t


@st.composite
def nonfree_homs(draw):
    """Hom(R/(a), R/(c a^2)) in the shape of statement 3.3, length at most 40.

    R is one-dimensional of depth zero on 2-3 variables: every variable
    x_i but the last, t, has a pure power x_i^e in I and a relation
    x_i^f t^g with f < e, so x_i^f is torsion, and one more relation may
    mix the variables.  t is then the monomial parameter a0; with n the
    stabilization index, a = t^n and c = t^k for k in 0..2, so b = c a^2
    is a parameter and the module is not free.
    """
    d = draw(st.integers(2, 3))
    relations = []
    for i in range(d - 1):
        e = draw(st.integers(2, 4))
        relations.append(tuple(e if k == i else 0 for k in range(d)))
        f, g = draw(st.integers(1, e - 1)), draw(st.integers(1, 3))
        relations.append(tuple(f if k == i else g if k == d - 1 else 0 for k in range(d)))
    mixed = st.tuples(*[st.integers(0, 3)] * (d - 1), st.integers(1, 3)).filter(
        lambda g: any(g[:-1]))
    relations += draw(st.lists(mixed, max_size=1))
    ring = LocalRing(tuple("xyz"[:d]), MonomialIdeal(d, relations))
    n = stabilization_index(ring)
    t = tuple(int(k == d - 1) for k in range(d))
    a = mono_pow(t, n)
    b = mono_mul(mono_pow(t, draw(st.integers(0, 2))), mono_pow(a, 2))
    Q = build_hom(validate_sop(ring, [a]), [b])
    assume(Q.length() <= 40)
    return Q


@st.composite
def one_dimensional_rings(draw):
    """k[x]/I of dimension one on 2-4 variables.

    One or two variables lack a pure power in I and every other one has
    one.  Two are cut down to dimension one by a relation in just those
    two, and such a ring has no monomial parameter.  Up to two random
    relations follow; draws of another dimension are rejected.
    """
    n = draw(st.integers(2, 4))
    free = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))
    exps = st.integers(1, 3)
    gens = [tuple(draw(exps) if k == i else 0 for k in range(n))
            for i in range(n) if i not in free]
    if len(free) == 2:
        gens.append(tuple(draw(exps) if k in free else 0 for k in range(n)))
    gens += draw(monomial_ideals(n, max_gens=2)).gens
    ring_ideal = MonomialIdeal(n, gens)
    assume(ring_ideal.dimension() == 1)
    return LocalRing(tuple("xyzw"[:n]), ring_ideal)


@st.composite
def drawn_systems(draw):
    """A ring on 1-4 variables and as many monomials as its dimension.

    A non-empty set of free variables is drawn first, and every other
    variable gets a pure power in I; up to two random relations follow,
    and may still cut the dimension.  Each candidate parameter is a pure
    power of a free variable, a pure power of any variable or a random
    monomial, so validate_sop accepts some draws and refuses others, and
    most draws have at least one parameter.
    """
    n = draw(st.integers(1, 4))
    pure = lambda i, e: tuple(e if k == i else 0 for k in range(n))  # noqa: E731
    free = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    gens = [pure(i, draw(st.integers(1, 3))) for i in range(n) if i not in free]
    gens += [g for g in draw(monomial_ideals(n, max_gens=2)).gens if any(g)]
    ring = LocalRing(tuple("xyzw"[:n]), MonomialIdeal(n, gens))
    exponent = st.integers(1, 3)
    candidate = st.one_of(st.builds(pure, st.sampled_from(free), exponent),
                          st.builds(pure, st.integers(0, n - 1), exponent),
                          st.tuples(*[st.integers(0, 2)] * n))
    params = draw(st.lists(candidate, min_size=ring.dimension(), max_size=ring.dimension()))
    return ring, params


def accepted(drawn) -> bool:
    """Whether validate_sop accepts a drawn_systems draw."""
    try:
        validate_sop(*drawn)
    except ValueError:
        return False
    return True
