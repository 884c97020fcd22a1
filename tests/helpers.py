"""Constructions that only the tests need, kept out of the library."""

from galdescent.semilinear import SemilinearModule


def coboundary_module(group, b):
    """The module with cocycle c_sigma = b^{-1} * sigma(b) for an invertible
    matrix b; it always satisfies the action law."""
    b_inv = b.inverse()
    return SemilinearModule(group, b.nrows,
                            [b_inv * b.map_entries(sigma) for sigma in group.elements])


def dense_constants(algebra):
    """The structure constants of a FiniteAlgebra in the dense form its
    constructor takes: entry [i][j] is the coordinate vector of e_i e_j."""
    n = algebra.dim
    return [[algebra.mu.col(i * n + j) for j in range(n)] for i in range(n)]


def expand_vector(vec, ext):
    """Flatten a vector over an extension into base-field coordinates,
    blockwise (d coordinates per entry, constant term first); the inverse of
    ``linalg.contract_vector``."""
    return tuple(c for a in vec for c in ext.coords(a))


def element_named(group, name):
    """The index of the group element with the given name."""
    return next(i for i, sigma in enumerate(group.elements) if sigma.name == name)
