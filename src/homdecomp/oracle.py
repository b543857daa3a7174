"""The F_p algebra oracle that the tests compare decomp.decide() against.

No runtime module imports this one: the runtime verdict is decide(Q),
read off the monomial action graph.  HomSubquotient.presentation(p)
writes a Hom module as a FinitePresentation, its action matrices over
F_p, and imports this module and gfp only when called.

The commutant A of the action matrices is computed exactly, its radical
is split off with the trace form of the regular representation, and the
semisimple quotient is probed for idempotents through the Frobenius
fixed space.  A decomposable verdict carries a machine-checkable
witness: either a partition of the basis into action-closed blocks, or
an explicit idempotent endomorphism e with e^2 = e commuting with every
action.  Indecomposable verdicts certify that A modulo its radical is a
field.

The trace-form radical is provably the Jacobson radical once the working
prime exceeds dim A (every matrix block M_n(F_q) then has p coprime to n,
so its regular trace form is nondegenerate).  algebra_decide() enforces
that bound and re-runs the verdict at a second prime as a cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .gfp import Echelon, PrimeFieldMatrix, next_prime, poly_eval
from .hom import UnionFind
from .monomials import Monomial

MAX_FITTING_ATTEMPTS = 64
BRUTE_FORCE_CAP = 16


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
class AlgebraReport:
    """The algebra oracle's verdict, computed over F_prime.

    Its first six fields are decomp.DecompositionReport's, so the tests
    read either verdict the same way.
    """

    verdict: str
    method: str
    module_dim: int
    summand_count: int | None = None
    partition: tuple[tuple[int, ...], ...] | None = None
    certificate: str | None = None
    prime: int = 0
    commutant_dim: int = 0
    idempotent: PrimeFieldMatrix | None = None
    note: str | None = None
    primes_checked: tuple[int, ...] = ()

    @property
    def decomposable(self) -> bool:
        return self.verdict == "decomposable"


def connected_components(pres: FinitePresentation) -> tuple[tuple[int, ...], ...]:
    """Basis blocks under the one-step action graph, sorted by first index.

    Distinct blocks span action-closed submodules, so two or more blocks
    witness a direct-sum decomposition outright.
    """
    n = pres.module_dim
    uf = UnionFind(n)
    for X in pres.actions:
        for i in range(n):
            row = X.rows[i]
            for j in range(n):
                if row[j]:
                    uf.union(i, j)
    return uf.blocks()


def _restrict(pres: FinitePresentation, block: tuple[int, ...]) -> FinitePresentation:
    """The submodule spanned by an action-closed basis block."""
    actions = []
    for X in pres.actions:
        rows = [[X.rows[i][j] for j in block] for i in block]
        actions.append(PrimeFieldMatrix(rows, pres.prime))
    basis = tuple(pres.basis[i] for i in block)
    return FinitePresentation(basis, tuple(actions), pres.prime, pres.variables)


def _cyclic_block(pres: FinitePresentation) -> bool:
    """One basis cell visibly generates the whole module.

    Requires commuting nilpotent partial injections: the operator algebra
    is then commutative local, m*Q is spanned by the image cells, and a
    cyclic module over a local ring is indecomposable.  Any failed
    precondition returns False and the caller does the full algebra.
    """
    n = pres.module_dim
    maps = []
    for X in pres.actions:
        step: dict[int, int] = {}
        for i, row in enumerate(X.rows):
            live = [j for j, v in enumerate(row) if v]
            if len(live) > 1 or any(row[j] != 1 for j in live):
                return False
            for j in live:
                if j in step:
                    return False
                step[j] = i
        maps.append(step)
    for f in maps:
        for start in f:
            v, hops = start, 0
            while v in f:
                v = f[v]
                hops += 1
                if hops > n:
                    return False  # a cycle: the action is not nilpotent
    for a in maps:
        for b in maps:
            for j in range(n):
                ab = a.get(b[j]) if j in b else None
                ba = b.get(a[j]) if j in a else None
                if ab != ba:
                    return False
    sources = [v for v in range(n) if all(v not in f.values() for f in maps)]
    if len(sources) != 1:
        return False
    seen = {sources[0]}
    queue = [sources[0]]
    while queue:
        v = queue.pop()
        for f in maps:
            w = f.get(v)
            if w is not None and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


class EndAlgebra:
    """F_p-basis of the full commutant of the action matrices."""

    def __init__(self, module_dim: int, prime: int, basis: tuple[PrimeFieldMatrix, ...],
                 express):
        self.module_dim = module_dim
        self.prime = prime
        self.basis = basis
        self._express = express

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, mat: PrimeFieldMatrix) -> tuple[int, ...]:
        got = self._express(mat)
        if got is None:
            raise AssertionError("matrix lies outside the commutant")
        return tuple(got)

    def element(self, coords) -> PrimeFieldMatrix:
        acc = PrimeFieldMatrix.zeros(self.module_dim, self.module_dim, self.prime)
        for c, b in zip(coords, self.basis):
            if c:
                acc = acc + b * c
        return acc

    def verify_closure(self) -> None:
        """Check basis products stay inside the span (tests call this)."""
        for a in self.basis:
            for b in self.basis:
                self.coords(a * b)


def _partial_injections(pres: FinitePresentation):
    """Column->row maps when every action is a 0/1 partial injection."""
    n = pres.module_dim
    maps = []
    for X in pres.actions:
        sigma = [None] * n
        tau = [None] * n
        for i in range(n):
            for j in range(n):
                e = X.rows[i][j]
                if e == 0:
                    continue
                if e != 1 or sigma[j] is not None or tau[i] is not None:
                    return None
                sigma[j] = i
                tau[i] = j
        maps.append((sigma, tau))
    return maps


def commutant(pres: FinitePresentation) -> EndAlgebra:
    """The algebra of matrices commuting with every action.

    Hom presentations act by partial injections on the monomial basis, so
    each commutation constraint equates at most two matrix entries.  A
    union-find over entry positions then yields a basis of 0/1 indicator
    matrices with disjoint supports, and the dimension is independent of
    the prime.  Arbitrary presentations fall back to a kernel computation.
    """
    n = pres.module_dim
    if n == 0:
        raise ValueError("zero module has no commutant basis")
    p = pres.prime
    maps = _partial_injections(pres)
    if maps is not None:
        sink = n * n
        uf = UnionFind(n * n + 1)
        for sigma, tau in maps:
            for i in range(n):
                ti = tau[i]
                for j in range(n):
                    sj = sigma[j]
                    if sj is not None and ti is not None:
                        uf.union(i * n + sj, ti * n + j)
                    elif sj is not None:
                        uf.union(i * n + sj, sink)
                    elif ti is not None:
                        uf.union(ti * n + j, sink)
        zero_root = uf.find(sink)
        groups: dict[int, list[int]] = {}
        for cell in range(n * n):
            r = uf.find(cell)
            if r != zero_root:
                groups.setdefault(r, []).append(cell)
        classes = sorted(groups.values())
        for cls in classes:
            on_diag = [c for c in cls if c // n == c % n]
            assert len(on_diag) in (0, len(cls)), "identity escapes the span"
        basis = []
        for cls in classes:
            rows = [[0] * n for _ in range(n)]
            for cell in cls:
                rows[cell // n][cell % n] = 1
            basis.append(PrimeFieldMatrix(rows, p))
        reps = [cls[0] for cls in classes]

        def express(mat: PrimeFieldMatrix):
            flat = mat.flatten()
            return [flat[r] for r in reps]

        return EndAlgebra(n, p, tuple(basis), express)

    rows = []
    for X in pres.actions:
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[i * n + k] = (row[i * n + k] + X.rows[k][j]) % p
                    row[k * n + j] = (row[k * n + j] - X.rows[i][k]) % p
                rows.append(row)
    kernel = PrimeFieldMatrix(rows, p).nullspace()
    basis = tuple(
        PrimeFieldMatrix([v[i * n:(i + 1) * n] for i in range(n)], p) for v in kernel
    )
    ech = Echelon(n * n, p)
    for b in basis:
        ech.insert(b.flatten())
    return EndAlgebra(n, p, basis, lambda mat: ech.express(mat.flatten()))


def _mult_table(alg: EndAlgebra):
    return [[alg.coords(a * b) for b in alg.basis] for a in alg.basis]


def _mul_coords(table, u, v, p):
    m = len(table)
    out = [0] * m
    for i, ci in enumerate(u):
        if not ci:
            continue
        for j, cj in enumerate(v):
            if not cj:
                continue
            f = ci * cj
            for r, t in enumerate(table[i][j]):
                if t:
                    out[r] = (out[r] + f * t) % p
    return out


def _radical_vectors(alg: EndAlgebra, table):
    """Nullspace of the regular-representation trace form, then verified.

    With p > dim A the nullspace is exactly the Jacobson radical; the
    nilpotent-ideal verification below is a cheap independent guard.
    """
    m = alg.dim
    p = alg.prime
    # gram[i][j] = trace(L_i L_j); flatten one side transposed so each
    # entry is a single dot product, and fill by symmetry
    row_flat = [[table[k][a][b] for a in range(m) for b in range(m)] for k in range(m)]
    col_flat = [[table[k][b][a] for a in range(m) for b in range(m)] for k in range(m)]
    gram = [[0] * m for _ in range(m)]
    for i in range(m):
        ci = col_flat[i]
        for j in range(i, m):
            val = sum(x * y for x, y in zip(ci, row_flat[j])) % p
            gram[i][j] = val
            gram[j][i] = val
    rad = [tuple(v) for v in PrimeFieldMatrix(gram, p).nullspace()]
    span = Echelon(m, p)
    for v in rad:
        span.insert(list(v))
    for v in rad:
        for i in range(m):
            unit = [0] * m
            unit[i] = 1
            assert _mul_coords(table, unit, v, p) in span, "radical is not a left ideal"
            assert _mul_coords(table, v, unit, p) in span, "radical is not a right ideal"
    layer = [list(v) for v in rad]
    for _ in range(m + 1):
        if not layer:
            break
        nxt = Echelon(m, p)
        for u in layer:
            for v in rad:
                nxt.insert(_mul_coords(table, u, v, p))
        layer = [list(row[1]) for row in nxt.rows] if nxt.dim else []
    else:
        raise AssertionError("trace-form radical is not nilpotent")
    return rad


def algebra_radical(alg: EndAlgebra) -> tuple[PrimeFieldMatrix, ...]:
    """Basis of the Jacobson radical of the commutant, as matrices."""
    return tuple(alg.element(v) for v in _radical_vectors(alg, _mult_table(alg)))


@dataclass(frozen=True)
class QuotientAlgebra:
    """A finite-dimensional unital F_p-algebra given by structure constants."""

    table: tuple
    one: tuple
    prime: int

    @property
    def dim(self) -> int:
        return len(self.one)

    def mul(self, u, v):
        return tuple(_mul_coords(self.table, u, v, self.prime))

    def power(self, u, k: int):
        acc = self.one
        base = tuple(u)
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def is_commutative(self) -> bool:
        m = self.dim
        units = [tuple(1 if r == i else 0 for r in range(m)) for i in range(m)]
        return all(
            self.mul(units[i], units[j]) == self.mul(units[j], units[i])
            for i in range(m) for j in range(i + 1, m)
        )

    def center(self):
        """The center as its own QuotientAlgebra plus the embedding vectors."""
        m, p = self.dim, self.prime
        if self.is_commutative():
            embed = [tuple(1 if r == i else 0 for r in range(m)) for i in range(m)]
            return self, embed
        rows = []
        for j in range(m):
            for r in range(m):
                # row of L_j - R_j acting on the unknown center element
                rows.append([
                    (self.table[j][c][r] - self.table[c][j][r]) % p for c in range(m)
                ])
        zvecs = [tuple(v) for v in PrimeFieldMatrix(rows, p).nullspace()]
        ech = Echelon(m, p)
        for v in zvecs:
            ech.insert(list(v))
        s = len(zvecs)

        def in_z(vec):
            got = ech.express(list(vec))
            assert got is not None, "center is not multiplicatively closed"
            return tuple(got)

        table = tuple(
            tuple(in_z(self.mul(zvecs[i], zvecs[j])) for j in range(s)) for i in range(s)
        )
        return QuotientAlgebra(table, in_z(self.one), p), zvecs


def _frobenius_fixed(qa: QuotientAlgebra):
    m, p = qa.dim, qa.prime
    cols = []
    for i in range(m):
        unit = tuple(1 if r == i else 0 for r in range(m))
        cols.append(qa.power(unit, p))
    rows = [
        [(cols[j][i] - (1 if i == j else 0)) % p for j in range(m)] for i in range(m)
    ]
    return [tuple(v) for v in PrimeFieldMatrix(rows, p).nullspace()]


def count_field_factors(qa: QuotientAlgebra) -> int:
    """Number of field factors of a commutative semisimple algebra.

    The Frobenius x -> x^p is F_p-linear; each factor F_{p^f} contributes a
    one-dimensional fixed space, so the count is dim ker(Frobenius - id).
    """
    return len(_frobenius_fixed(qa))


def _nontrivial_idempotent(qa: QuotientAlgebra):
    """Deterministic idempotent that is neither 0 nor 1, or None.

    Splits a Frobenius-fixed element by its eigenvalues: the minimal
    polynomial of such an element divides x^p - x, so it factors into
    distinct linear terms and Lagrange interpolation yields a projector.
    """
    p = qa.prime
    fixed = _frobenius_fixed(qa)
    if len(fixed) < 2:
        return None
    ech = Echelon(qa.dim, p)
    ech.insert(list(qa.one))
    t = next(v for v in fixed if list(v) not in ech)
    m = qa.dim
    lt = PrimeFieldMatrix(
        [[qa.mul(t, tuple(1 if r == j else 0 for r in range(m)))[i] for j in range(m)]
         for i in range(m)], p)
    minpoly = lt.minimal_polynomial()
    roots = [lam for lam in range(p) if poly_eval(minpoly, lam, p) == 0]
    assert len(roots) == len(minpoly) - 1, "fixed element has inseparable minimal polynomial"
    lam0 = roots[0]
    e = qa.one
    for mu in roots[1:]:
        scale = pow(lam0 - mu, p - 2, p)
        shifted = tuple((c - mu * o) * scale % p for c, o in zip(t, qa.one))
        e = qa.mul(e, shifted)
    assert qa.mul(e, e) == e and any(e) and e != qa.one
    return e


def _embedded(coords, vecs, dim: int, p: int):
    """Linear combination sum(c * vec) back in the ambient coordinates."""
    out = [0] * dim
    for c, vec in zip(coords, vecs):
        if c:
            for r, z in enumerate(vec):
                out[r] = (out[r] + c * z) % p
    return tuple(out)


def _corner_algebra(qa: QuotientAlgebra, unit):
    """The ideal qa*unit of a commutative qa as a unital algebra.

    Returns the corner together with its basis written in qa coordinates.
    """
    p = qa.prime
    ech = Echelon(qa.dim, p)
    vecs = []
    for i in range(qa.dim):
        e_i = tuple(1 if r == i else 0 for r in range(qa.dim))
        w = qa.mul(e_i, unit)
        if ech.insert(list(w)):
            vecs.append(w)

    def coords_of(v):
        got = ech.express(list(v))
        assert got is not None, "corner product left the corner"
        return tuple(c % p for c in got)

    table = tuple(tuple(coords_of(qa.mul(a, b)) for b in vecs) for a in vecs)
    return QuotientAlgebra(table, coords_of(unit), p), vecs


def _central_factors(qa: QuotientAlgebra):
    """[(field degree, unit idempotent)] for each factor of a split center."""
    if count_field_factors(qa) == 1:
        return [(qa.dim, qa.one)]
    e = _nontrivial_idempotent(qa)
    rest = tuple((o - c) % qa.prime for o, c in zip(qa.one, e))
    out = []
    for unit in (e, rest):
        sub, vecs = _corner_algebra(qa, unit)
        for deg, idem in _central_factors(sub):
            out.append((deg, _embedded(idem, vecs, qa.dim, qa.prime)))
    return out


def _summand_count(quotient: QuotientAlgebra, zalg: QuotientAlgebra, embed) -> int:
    """Number of indecomposable summands of the module.

    The semisimple quotient is a product of blocks M_n(F_q); the module
    splits into n copies of one indecomposable per block, so the count is
    the sum of the n's.  Each block is cut out by a primitive central
    idempotent and has dimension n^2 * deg(F_q), with the degree read off
    the matching center factor.
    """
    p = quotient.prime
    d = quotient.dim
    units = [tuple(1 if r == i else 0 for r in range(d)) for i in range(d)]
    total = 0
    for deg, ez in _central_factors(zalg):
        ed = _embedded(ez, embed, d, p)
        block = PrimeFieldMatrix([list(quotient.mul(u, ed)) for u in units], p).rank()
        n = 1
        while n * n * deg < block:
            n += 1
        assert n * n * deg == block, "block dimension is not n^2 * field degree"
        total += n
    return total


def _lift_idempotent(approx: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Lift an idempotent-mod-radical to an honest one: e <- 3e^2 - 2e^3."""
    e = approx
    for _ in range(64):
        sq = e * e
        if sq == e:
            return e
        e = sq * 3 - sq * e * 2
    raise AssertionError("idempotent lift did not converge")


def fitting_split(phi: PrimeFieldMatrix):
    """Stable kernel and image of phi, or None when one of them is trivial.

    phi^dim has equal kernel and image to all later powers, so the module
    is their direct sum; a commutant element that is neither nilpotent nor
    invertible therefore produces a decomposition.
    """
    n = phi.nrows
    stable = phi ** n
    r = stable.rank()
    if r == 0 or r == n:
        return None
    ker = tuple(tuple(v) for v in stable.nullspace())
    red, pivots = stable.transpose().rref()
    image = tuple(red.rows[i] for i in range(len(pivots)))
    assert len(ker) + len(image) == n
    return ker, image


def _projector_onto(image, kernel, p: int) -> PrimeFieldMatrix:
    n = len(image) + len(kernel)
    cols = list(image) + list(kernel)
    basis_change = PrimeFieldMatrix([[cols[c][r] for c in range(n)] for r in range(n)], p)
    diag = PrimeFieldMatrix(
        [[1 if (i == j and i < len(image)) else 0 for j in range(n)] for i in range(n)], p)
    return basis_change * diag * basis_change.inverse()


def _check_idempotent_witness(pres: FinitePresentation, e: PrimeFieldMatrix) -> None:
    assert e * e == e
    assert not e.is_zero()
    assert e != PrimeFieldMatrix.identity(pres.module_dim, pres.prime)
    for X in pres.actions:
        assert e * X == X * e


def _semisimple_profile(pres: FinitePresentation, alg: EndAlgebra):
    """(quotient data) after splitting the radical off the commutant."""
    if pres.prime <= alg.dim:
        raise ValueError(
            f"prime {pres.prime} does not exceed commutant dimension {alg.dim}; "
            "rebuild the presentation with a larger prime")
    p = alg.prime
    m = alg.dim
    table = _mult_table(alg)
    rad = _radical_vectors(alg, table)
    ech = Echelon(m, p)
    for v in rad:
        ech.insert(list(v))
    reps = []
    for i in range(m):
        unit = [0] * m
        unit[i] = 1
        if ech.insert(unit):
            reps.append(i)
    nrad = len(rad)

    def to_quotient(coords):
        got = ech.express(list(coords))
        assert got is not None
        return tuple(c % p for c in got[nrad:])

    dtable = tuple(
        tuple(to_quotient(table[a][b]) for b in reps) for a in reps
    )
    one = to_quotient(alg.coords(PrimeFieldMatrix.identity(pres.module_dim, p)))
    quotient = QuotientAlgebra(dtable, one, p)
    zalg, embed = quotient.center()
    return table, rad, reps, quotient, zalg, embed


def _quotient_coords_to_matrix(alg: EndAlgebra, reps, coords) -> PrimeFieldMatrix:
    full = [0] * alg.dim
    for c, i in zip(coords, reps):
        full[i] = c
    return alg.element(full)


def _algebra_report(pres: FinitePresentation, seed: int = 0) -> AlgebraReport:
    """Verdict from the endomorphism algebra alone, ignoring components."""
    alg = commutant(pres)
    table, rad, reps, quotient, zalg, embed = _semisimple_profile(pres, alg)
    factor_count = count_field_factors(zalg)
    count = _summand_count(quotient, zalg, embed)
    base = dict(prime=pres.prime, module_dim=pres.module_dim, commutant_dim=alg.dim,
                primes_checked=(pres.prime,))
    if factor_count >= 2:
        ez = _nontrivial_idempotent(zalg)
        ed = [0] * quotient.dim
        for c, zvec in zip(ez, embed):
            for r, z in enumerate(zvec):
                ed[r] = (ed[r] + c * z) % pres.prime
        e = _lift_idempotent(_quotient_coords_to_matrix(alg, reps, ed))
        _check_idempotent_witness(pres, e)
        return AlgebraReport(
            verdict="decomposable", method="frobenius", summand_count=count,
            idempotent=e, **base)
    if not quotient.is_commutative():
        rng = random.Random(seed)
        for _ in range(MAX_FITTING_ATTEMPTS):
            phi = alg.element([rng.randrange(pres.prime) for _ in range(alg.dim)])
            split = fitting_split(phi)
            if split is None:
                continue
            ker, image = split
            e = _projector_onto(image, ker, pres.prime)
            _check_idempotent_witness(pres, e)
            return AlgebraReport(
                verdict="decomposable", method="fitting", summand_count=count,
                idempotent=e, **base)
        return AlgebraReport(
            verdict="decomposable", method="fitting", summand_count=count,
            note="matrix-block quotient; random Fitting search exhausted", **base)
    assert count == 1
    certificate = (
        f"endomorphism ring modulo its radical is a field of dimension {quotient.dim}")
    return AlgebraReport(
        verdict="indecomposable", method="frobenius", summand_count=1,
        certificate=certificate, **base)


def is_decomposable(pres: FinitePresentation, seed: int = 0) -> AlgebraReport:
    """Full decision for one presentation at its own prime.

    Distinct connected components of the action graph settle the verdict
    without any algebra; otherwise the commutant pipeline runs.  The prime
    must exceed the commutant dimension when the pipeline is needed.
    """
    if pres.module_dim == 0:
        raise ValueError("zero module has no decomposition verdict")
    comps = connected_components(pres)
    if len(comps) >= 2:
        alg = commutant(pres)
        if pres.prime > alg.dim:
            # additive over the blocks, and each block is far smaller
            # than the whole module, so count them one at a time
            count = 0
            for block in comps:
                if len(block) == 1:
                    count += 1
                    continue
                sub = _restrict(pres, block)
                if _cyclic_block(sub):
                    count += 1
                else:
                    count += _algebra_report(sub, seed).summand_count
        else:
            count = None
        return AlgebraReport(
            verdict="decomposable", method="components", prime=pres.prime,
            module_dim=pres.module_dim, commutant_dim=alg.dim,
            summand_count=count, partition=comps, primes_checked=(pres.prime,))
    return _algebra_report(pres, seed)


def algebra_decide(pres_factory, seed: int = 0, prime: int | None = None,
                   cross_check: bool = True) -> AlgebraReport:
    """The algebra oracle's verdict, with automatic prime selection.

    pres_factory(p) must return the same module presented over F_p.  The
    working prime is pushed above the commutant dimension, and by default
    the verdict is recomputed at the next prime and required to agree.
    """
    probe = prime if prime is not None else 2
    pres = pres_factory(probe)
    m = commutant(pres).dim
    if prime is not None:
        if prime <= m:
            raise ValueError(
                f"prime {prime} does not exceed commutant dimension {m}")
        p1 = prime
    else:
        p1 = probe
        for _ in range(6):
            if p1 > m:
                break
            p1 = next_prime(m)
            pres = pres_factory(p1)
            m = commutant(pres).dim
        assert p1 > m, "commutant dimension kept growing with the prime"
    report = is_decomposable(pres, seed)
    if not cross_check:
        return report
    p2 = next_prime(max(p1, m))
    other = is_decomposable(pres_factory(p2), seed)
    if report.verdict != other.verdict:
        raise RuntimeError(
            f"verdict disagreement between primes {p1} and {p2}: "
            f"{report.verdict} vs {other.verdict}")
    if (report.summand_count is not None and other.summand_count is not None
            and report.summand_count != other.summand_count):
        raise RuntimeError(
            f"summand count disagreement between primes {p1} and {p2}")
    return replace(report, primes_checked=(p1, p2))


def brute_force_idempotent_oracle(pres: FinitePresentation) -> bool:
    """Exhaustive F_2 search for a nontrivial idempotent in the commutant.

    Ground truth for small cases: over F_2 every commutant element is a
    0/1 combination of the basis, so all of them can be enumerated.  The
    module is decomposable over F_2 iff some e with e^2 = e, e != 0, 1
    shows up.  Cost is 2^dim, so the commutant dimension is capped.
    """
    if pres.prime != 2:
        raise ValueError("oracle enumerates over F_2; build the presentation at 2")
    alg = commutant(pres)
    m = alg.dim
    if m > BRUTE_FORCE_CAP:
        raise ValueError(f"commutant dimension {m} exceeds oracle cap {BRUTE_FORCE_CAP}")
    n = pres.module_dim
    bit_basis = []
    for mat in alg.basis:
        bit_basis.append([sum(1 << j for j in range(n) if row[j]) for row in mat.rows])
    identity = [1 << i for i in range(n)]
    current = [0] * n
    code = 0
    for step in range(1, 1 << m):
        flip = (step ^ (step >> 1)) ^ code
        code ^= flip
        k = flip.bit_length() - 1
        rows = bit_basis[k]
        for i in range(n):
            current[i] ^= rows[i]
        if current == identity or not any(current):
            continue
        square = [0] * n
        for i in range(n):
            acc = 0
            row = current[i]
            while row:
                low = row & -row
                acc ^= current[low.bit_length() - 1]
                row ^= low
            square[i] = acc
        if square == current:
            return True
    return False
