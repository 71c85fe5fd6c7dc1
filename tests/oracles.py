"""Fraction oracles and helpers that the tests read and no module of liekit
needs."""

from fractions import Fraction
from typing import Sequence

from liekit.exactlin import Mat, Subspace
from liekit.liecore import LieAlgebra


def apply(m: Mat, v: Sequence) -> tuple[Fraction, ...]:
    """m times the column vector v."""
    return (m @ Mat([[x] for x in v], cols=1)).column(0)


def bracket_basis(L: LieAlgebra, i: int, j: int) -> list[Fraction]:
    """[e_i, e_j] in L's basis coordinates."""
    return L.bracket(L.basis_vector(i), L.basis_vector(j))


def gl_span(n: int, mats: Sequence[Mat]) -> Subspace:
    """The span of n x n matrices in Q^(n^2), each flattened row-major."""
    return Subspace.span(n * n, [[x for row in m.data for x in row] for m in mats])
