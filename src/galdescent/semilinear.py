"""Galois descent of vector spaces: semilinear actions, fixed subspaces,
scalar extension, and descent of stable subspaces.

A semilinear action of the group on Omega^n is stored through its linear
parts: matrices c_sigma with the action v -> c_sigma * sigma(v), sigma applied
entrywise.  The group-action law is then the finite matrix identity
c_{sigma tau} = c_sigma * sigma(c_tau).
"""

from .errors import (
    CocycleViolation,
    IdentityNotTrivial,
    InternalContradiction,
    NotStable,
    ShapeMismatch,
)
from .linalg import (
    Matrix,
    contract_vector,
    fixed_space_basis,
    kron,
    restrict_scalars_matrix,
    span_contains,
)


class KSpace:
    """A finite-dimensional space over the base field, optionally embedded in
    Omega^n as a fixed subspace (embedding vectors over the extension)."""

    __slots__ = ("field", "dim", "embedding", "ambient_dim")

    def __init__(self, field, dim, embedding=None, ambient_dim=None):
        self.field = field
        self.dim = dim
        self.embedding = list(embedding) if embedding is not None else None
        self.ambient_dim = ambient_dim

    def __repr__(self):
        return f"KSpace(dim {self.dim} over {self.field!r})"


class SemilinearModule:
    """Omega^n with a semilinear group action given by its cocycle matrices."""

    __slots__ = ("group", "dim", "cocycle")

    def __init__(self, group, dim, cocycle):
        """``cocycle``: list aligned with group.elements of n x n matrices
        over the extension."""
        if not group.is_full:
            # the fixed-space dimension guarantee needs the fixed field to be
            # the base field, i.e. the whole automorphism group
            raise ShapeMismatch("semilinear modules need the full automorphism group")
        self.group = group
        self.dim = dim
        if len(cocycle) != group.order:
            raise ShapeMismatch("one matrix per group element required")
        for c in cocycle:
            if c.nrows != dim or c.ncols != dim or c.field != group.ext:
                raise ShapeMismatch("cocycle matrices must be n x n over the extension")
        self.cocycle = list(cocycle)

    @classmethod
    def trivial(cls, group, dim):
        ident = Matrix.identity(group.ext, dim)
        return cls(group, dim, [ident] * group.order)

    def act(self, index, vec):
        """Apply the group element with the given index to a vector."""
        sigma = self.group.elements[index]
        conjugated = tuple(sigma(x) for x in vec)
        return self.cocycle[index].apply(conjugated)


class ActionReport:
    __slots__ = ("pairs_checked",)

    def __init__(self, pairs_checked):
        self.pairs_checked = pairs_checked


def validate_action(module):
    """Check c_id = I and the full action law; raises the typed error naming
    the first offender.  With c_id = I, the law at (sigma, sigma^-1) gives
    c_sigma * sigma(c_sigma^-1) = I, so every c_sigma is invertible."""
    group = module.group
    ext = group.ext
    ident = Matrix.identity(ext, module.dim)
    if module.cocycle[group.identity_index] != ident:
        raise IdentityNotTrivial("c_id is not the identity matrix")
    pairs = 0
    for i, sigma in enumerate(group.elements):
        for j, tau in enumerate(group.elements):
            left = module.cocycle[i] * module.cocycle[j].map_entries(sigma)
            if left != module.cocycle[group.compose(i, j)]:
                raise CocycleViolation(sigma.name, tau.name)
            pairs += 1
    return ActionReport(pairs)


def fixed_subspace(module):
    """Base-field basis of the vectors fixed by a valid action (what
    ``validate_action`` checks), embedded in Omega^n; its dimension is n.  A
    vector is then fixed as soon as every generator fixes it, so only the
    generators' base-field matrices of v -> c_sigma * sigma(v) are stacked."""
    group = module.group
    ext = group.ext
    base = ext.base
    n = module.dim
    ident = Matrix.identity(base, n)
    matrices = [restrict_scalars_matrix(module.cocycle[i], ext)
                * kron(ident, group.elements[i].matrix())
                for i in group.generator_indices]
    kernel = fixed_space_basis(base, n * ext.degree, matrices)
    embedding = [contract_vector(v, ext, n) for v in kernel]
    if len(kernel) != n:
        raise InternalContradiction(
            f"fixed subspace has dimension {len(kernel)}, expected {n}; "
            "the action data must be invalid")
    return KSpace(base, len(kernel), embedding, ambient_dim=n)


def extend_scalars(space, group):
    """Omega tensor W with the canonical action: trivial cocycle."""
    return SemilinearModule.trivial(group, space.dim)


def counit_check(module):
    """The n x n matrix over Omega whose columns are a fixed-subspace basis;
    invertibility witnesses that scalars extend back onto the module."""
    space = fixed_subspace(module)
    ext = module.group.ext
    if space.dim == 0:
        return Matrix(ext, [])
    cols = [list(v) for v in space.embedding]
    matrix = Matrix.from_cols(ext, cols)
    if not matrix.is_invertible():
        raise InternalContradiction("counit matrix is singular for a valid action")
    return matrix


def descend_subspace(space, spanning, group):
    """Descend a stable Omega-subspace of the extension of ``space``.

    ``spanning``: vectors over the extension spanning the subspace.  Stability
    is checked on the group's generating set; on success returns the fixed
    base-space with an embedding whose Omega-span is verified to recover the
    input.
    """
    ext = group.ext
    base = ext.base
    n = space.dim
    spanning = [tuple(v) for v in spanning if any(v)]
    for v in spanning:
        if len(v) != n:
            raise ShapeMismatch("spanning vector of wrong length")
    for idx in group.generator_indices:
        sigma = group.elements[idx]
        for v in spanning:
            image = tuple(sigma(x) for x in v)
            if not span_contains(ext, spanning, image):
                raise NotStable(sigma.name, v)
    # the fixed part is spanned by the traces Tr(b * w) for b in the power
    # basis and w in the spanning set (Speiser's lemma); the field trace of
    # a is the trace of multiplication by a
    basis = ext.power_basis()
    traces = [tuple(ext.mult_matrix(b * x).trace() for x in v) for v in spanning for b in basis]
    reduced, pivots = Matrix(base, traces).rref()
    fixed_vectors = [tuple(map(ext.from_base, row)) for row in reduced.rows[:len(pivots)]]
    # verify Omega * fixed = input span (mutual containment over Omega)
    for v in fixed_vectors:
        if not span_contains(ext, spanning, v):
            raise InternalContradiction("fixed vector escaped the span")
    for v in spanning:
        if not span_contains(ext, fixed_vectors, v):
            raise InternalContradiction(
                "stable subspace is not spanned by its fixed part")
    return KSpace(base, len(fixed_vectors), fixed_vectors, ambient_dim=n)
