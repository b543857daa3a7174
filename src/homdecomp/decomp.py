"""Decides whether a monomial Hom module splits as a direct sum.

The runtime route is decide(Q).  A monomial subquotient C/B is
Z^d-graded with every graded piece at most one-dimensional, so a graded
direct summand is spanned by basis monomials and is closed under the
one-step action u -> u*x_i.  The graded summands are therefore unions of
connected components of that action graph, and each component is
graded-indecomposable.  By Gordon-Green ("Graded Artin algebras",
J. Algebra 76, 1982) a graded module over a graded Artin algebra is
indecomposable iff it is graded-indecomposable, so the indecomposable
summands of C/B are exactly its components.

The independent F_p algebra oracle that the tests compare decide()
against is homdecomp.oracle, which no runtime module imports.
is_decomposable, commutant and connected_components below forward to it
and import it only when called; the benchmark's tracer looks them up
here by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .hom import HomSubquotient

if TYPE_CHECKING:
    from .oracle import AlgebraReport, EndAlgebra, FinitePresentation

CONNECTED_CERTIFICATE = (
    "graded with one-dimensional graded pieces and a connected action graph: "
    "graded-indecomposable, hence indecomposable (Gordon-Green)")


class DecompositionReport(NamedTuple):
    """Verdict on one module.

    A decomposable verdict carries its witness (a partition of the basis
    into action-closed blocks), an indecomposable one a certificate.
    """

    verdict: str
    method: str
    module_dim: int
    summand_count: int | None = None
    partition: tuple[tuple[int, ...], ...] | None = None
    certificate: str | None = None

    @property
    def decomposable(self) -> bool:
        return self.verdict == "decomposable"


def decide(Q: HomSubquotient) -> DecompositionReport:
    """Decomposability and summand count of a monomial Hom module.

    The indecomposable summands are the connected components of the
    action graph (see the module docstring): two or more components are a
    split, witnessed by the partition, and one component is an
    indecomposable module.  The count is row_intervals' Q.rows.count, so
    a connected module lists no basis; only a split one calls
    Q.components() for its partition.

    >>> from .hom import build_hom
    >>> from .rings import LocalRing, validate_sop
    >>> R = LocalRing.from_text(("x", "y"), "(x^2, xy^3)")
    >>> ps = validate_sop(R, [R.parse_monomial("y^2")])
    >>> rep = decide(build_hom(ps, [3]))
    >>> rep.verdict, rep.summand_count, rep.partition
    ('decomposable', 2, ((0, 1), (2, 3)))
    >>> decide(build_hom(ps, [2])).verdict
    'indecomposable'
    """
    n = Q.length()
    count = Q.rows.count
    if count >= 2:
        return DecompositionReport("decomposable", "components", n, count,
                                   partition=Q.components())
    return DecompositionReport("indecomposable", "components", n, 1,
                               certificate=CONNECTED_CERTIFICATE)


def is_decomposable(pres: FinitePresentation, seed: int = 0) -> AlgebraReport:
    """oracle.is_decomposable, imported on the first call."""
    from .oracle import is_decomposable
    return is_decomposable(pres, seed)


def commutant(pres: FinitePresentation) -> EndAlgebra:
    """oracle.commutant, imported on the first call."""
    from .oracle import commutant
    return commutant(pres)


def connected_components(pres: FinitePresentation) -> tuple[tuple[int, ...], ...]:
    """oracle.connected_components, imported on the first call."""
    from .oracle import connected_components
    return connected_components(pres)
