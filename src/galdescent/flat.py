"""Faithfully flat descent of modules in the finite-dimensional commutative
setting: finite algebras by their multiplication maps, the Amitsur complex, its
exactness, cocycle validation, and module reconstruction.

Every tensor power is realized concretely as a vector space over the base
field, so each theorem reduces to an exact matrix identity.  A tensor
product U (x) V has basis pairs (i, j) at index i * dim(V) + j, leftmost slot
slowest.  Every map between realizations is a Kronecker product
(``linalg.kron``) of identities, unit columns and multiplication matrices,
followed by at most one reordering of tensor slots (``_permute_slots``).
These maps are mostly zeros, and a ``linalg.Matrix`` stores only the nonzero
entries of each row, as raw scalars: ints mod p over F_p, and over Q int
numerators over one denominator per matrix.  So building, composing and
reducing them costs int operations in proportion to the nonzeros, with no
field element or ``Fraction`` per entry; ``Matrix.rows`` is a dense view of
field elements for reading small matrices entry by entry.

The Amitsur differentials d^r: B^(x)r -> B^(x)r+1 follow the recurrence
d^r = u (x) I_{m^r} - I_m (x) d^(r-1) from d^0 = u, the unit column of B
(m = dim B).  Building the complex checks nothing about it: the composites
d^(r+1) d^r = 0 are checked once, by the one exactness proof,
``check_exactness``, which multiplies the differentials with a contracting
homotopy built from a section of the map and computes no rank.

A ``FiniteAlgebra`` is its multiplication map mu: A (x) A -> A, one
dim x dim^2 ``Matrix``, and its axioms and maps are identities between linear
maps (Waterhouse, ch. 13): the unit law mu (u (x) I) = I, commutativity
mu = mu composed with the swap of the slots, associativity
mu (L_s (x) I) = L_s mu for the multiplication matrix L_s of each s in a
generating set S (see ``FiniteAlgebra.verify``), and F mu_A = mu_B (F (x) F)
for an algebra map F.  S is chosen greedily from the basis: {t} for an
extension on its power basis, {1 (x) u, t (x) 1} for a tensor product of two.
"""

import itertools
import math

from .errors import (
    BasisNotIndependent,
    BasisNotSpanning,
    Budget,
    BudgetExceeded,
    CocycleFailed,
    FieldMismatch,
    NotBilinearCompatible,
    NotExact,
    ReconstructionFailed,
    ShapeMismatch,
    UnsupportedBase,
    ZeroTarget,
)
from .linalg import Matrix, kron


def _permute_slots(matrix, rows=None, cols=None):
    """Re-index ``matrix`` from one tensor layout to another by moving its
    entries.  ``rows`` and ``cols`` are (slot sizes, order) pairs for the
    current layout: new slot s is old slot ``order[s]``."""

    def sources(dims, order):
        # the old index of every new position, new positions in order
        strides = [math.prod(dims[s + 1:]) for s in range(len(dims))]
        return [sum(i * strides[s] for i, s in zip(idx, order))
                for idx in itertools.product(*(range(dims[s]) for s in order))]

    return matrix.permute(sources(*rows) if rows else None, sources(*cols) if cols else None)


def _pure_tensor(field, u, v):
    """The column of u (x) v."""
    return kron(Matrix.from_cols(field, [u]), Matrix.from_cols(field, [v]))


class FiniteAlgebra:
    """A commutative unital algebra of finite dimension over a base field,
    given by its multiplication map.  Elements are coordinate tuples, used
    only as operands of ``mul`` and ``mult_matrix``: the library computes
    with the maps of an algebra, never with its points.

    ``sc`` is given dense, ``sc[i][j]`` the coordinates of e_i e_j, and kept
    as one ``Matrix`` ``mu``: A (x) A -> A, of shape dim x dim^2, whose
    column i * dim + j holds the coordinates of e_i e_j."""

    __slots__ = ("field", "dim", "mu", "unit", "label")

    def __init__(self, field, sc, unit, label="algebra"):
        dim = len(sc)
        products = []
        for i, row in enumerate(sc):
            row = tuple(row)
            if len(row) != dim:
                raise ShapeMismatch(
                    f"structure constants row {i} has {len(row)} products, expected {dim}")
            for j, v in enumerate(row):
                if len(v) != dim:
                    raise ShapeMismatch(
                        f"product of basis elements {i} and {j} has length {len(v)}, "
                        f"expected {dim}")
            products.extend(row)
        self._set(field, Matrix.from_cols(field, products), unit, label)

    def _set(self, field, mu, unit, label):
        self.field = field
        self.dim = mu.nrows
        self.mu = mu
        self.unit = tuple(unit)
        self.label = label
        if len(self.unit) != self.dim:
            raise ShapeMismatch("unit vector has wrong length")
        self.verify()

    @classmethod
    def _of(cls, field, mu, unit, label):
        """The algebra with multiplication map ``mu``, checked as the
        constructor checks one given by structure constants."""
        algebra = cls.__new__(cls)
        algebra._set(field, mu, unit, label)
        return algebra

    # -- constructors ------------------------------------------------------

    @classmethod
    def base(cls, field):
        return cls(field, [[(field.one,)]], (field.one,), label="k")

    @classmethod
    def zero(cls, field):
        return cls(field, [], (), label="0")

    @classmethod
    def from_extension(cls, ext):
        """The extension field as an algebra over its base, on the power
        basis."""
        basis = ext.power_basis()
        mu = ext.coords_matrix([a * b for a in basis for b in basis])
        return cls._of(ext.base, mu, ext.coords(ext.one), repr(ext))

    @classmethod
    def product(cls, factors):
        """Direct product; basis is the concatenation of the factor bases.
        With P_a the projection onto factor a, the rows of factor a in mu
        are mu_a (P_a (x) P_a)."""
        if not factors:
            raise ShapeMismatch("empty product")
        field = factors[0].field
        if any(a.field != field for a in factors):
            raise FieldMismatch("product factors over different fields")
        dim = sum(a.dim for a in factors)
        rows = []
        before = 0
        for a in factors:
            projection = (Matrix.zero(field, a.dim, before)
                          .hstack(Matrix.identity(field, a.dim))
                          .hstack(Matrix.zero(field, a.dim, dim - before - a.dim)))
            rows.extend((a.mu * kron(projection, projection)).rows)
            before += a.dim
        unit = tuple(c for a in factors for c in a.unit)
        label = " x ".join(a.label for a in factors)
        return cls._of(field, Matrix(field, rows), unit, label)

    @classmethod
    def tensor(cls, A, B):
        """A tensor B over the base field, basis pairs (i, j) with index
        i * dim(B) + j: mu is mu_A (x) mu_B with its column slots
        (A, A, B, B) reordered to (A, B, A, B)."""
        if A.field != B.field:
            raise FieldMismatch("tensor factors over different fields")
        m, n = A.dim, B.dim
        mu = _permute_slots(kron(A.mu, B.mu), cols=((m, m, n, n), (0, 2, 1, 3)))
        return cls._of(A.field, mu, _pure_tensor(A.field, A.unit, B.unit).col(0),
                       f"({A.label}) (x) ({B.label})")

    # -- arithmetic ---------------------------------------------------------

    def _check_length(self, *vectors):
        for v in vectors:
            if len(v) != self.dim:
                raise ShapeMismatch(
                    f"vector of length {len(v)} in an algebra of dimension {self.dim}")

    def mul(self, u, v):
        """u * v, the multiplication map applied to u (x) v."""
        self._check_length(u, v)
        return (self.mu * _pure_tensor(self.field, u, v)).col(0)

    def mult_matrix(self, u):
        """Matrix of v -> u * v on the basis: mu (u (x) I)."""
        self._check_length(u)
        return self.mu * kron(Matrix.from_cols(self.field, [u]),
                              Matrix.identity(self.field, self.dim))

    def verify(self):
        """Prove the unit law, commutativity and associativity as identities
        between linear maps.

        With mu' = mu composed with the swap of its slots, the unit law is
        mu (u (x) I) = I = mu' (u (x) I) and commutativity is mu' = mu.  They
        come first, since the proof of associativity needs them, and the
        first basis element or pair where one fails is reported as a check of
        every basis pair reports it.  Associativity follows from a generating
        set S in the left nucleus, the n with (n x) y = n (x y): in a
        commutative algebra the left nucleus is the whole nucleus, and the
        nucleus is a subalgebra that contains 1 (Schafer, *An Introduction to
        Nonassociative Algebras*, 1966, ch. II), so it contains every word
        s1 (s2 (... (sk 1))) over S, and those span.  With L_s the
        multiplication matrix of s, the check is mu (L_s (x) I) = L_s mu for
        each s in S, chosen by ``_generators``: 2 |S| matrix products.
        """
        n, mu = self.dim, self.mu
        identity = Matrix.identity(self.field, n)
        swapped = _permute_slots(mu, cols=((n, n), (1, 0)))
        on_unit = kron(Matrix.from_cols(self.field, [self.unit]), identity)
        left, right = mu * on_unit, swapped * on_unit
        if left != identity or right != identity or swapped != mu:
            basis = identity.rows
            for i in range(n):
                if left.col(i) != basis[i] or right.col(i) != basis[i]:
                    raise ShapeMismatch(f"unit law fails on basis element {i}")
                for j in range(i + 1, n):
                    if mu.col(i * n + j) != mu.col(j * n + i):
                        raise ShapeMismatch(f"product not commutative at ({i}, {j})")
        for mult in self._generators():
            if mu * kron(mult, identity) != mult * mu:
                raise ShapeMismatch("product not associative")

    def _generators(self):
        """The multiplication matrices of a generating set S chosen greedily
        from the basis.

        W, the span of the words over S, is kept in semi-echelon form and
        starts as span{1}.  Each basis element not in W joins S and W, and W
        is then closed under left multiplication by every member of S, each
        (member, word) pair multiplied once.  Every vector W receives is some
        s w, so W stays the span of the words; every basis element ends in W,
        so S generates.  An extension on its power basis gets S = {t}, a
        tensor product of two such {1 (x) u, t (x) 1}.
        """
        echelon = []   # (pivot, vector): 1 at its pivot, 0 at earlier pivots
        words = []
        generators = []
        pending = []   # (member of S, word) pairs not yet multiplied

        def grow(v):
            """Add v to W unless it already lies there; say whether it did."""
            w = v
            for p, e in echelon:
                c = w[p]
                if c:
                    w = tuple(a - c * b if b else a for a, b in zip(w, e))
            p = next((l for l, a in enumerate(w) if a), None)
            if p is None:
                return False
            inv = w[p].inverse()
            echelon.append((p, tuple(a * inv if a else a for a in w)))
            words.append(v)
            pending.extend((s, v) for s in generators)
            return True

        grow(self.unit)
        for e in Matrix.identity(self.field, self.dim).rows:
            if grow(e):
                generators.append(self.mult_matrix(e))
                pending.extend((generators[-1], w) for w in words)
                while pending:
                    s, w = pending.pop()
                    grow(s.apply(w))
        return generators

    def __repr__(self):
        return f"FiniteAlgebra({self.label}, dim {self.dim} over {self.field!r})"


class AlgebraMap:
    """A unital multiplicative linear map between finite algebras."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise ShapeMismatch("matrix shape does not match the algebras")
        self.source = source
        self.target = target
        self.matrix = matrix
        self._verify()

    @classmethod
    def base_inclusion(cls, target):
        """The unital map from the base field into the algebra."""
        source = FiniteAlgebra.base(target.field)
        matrix = Matrix.from_cols(target.field, [list(target.unit)])
        return cls(source, target, matrix)

    def apply(self, vec):
        return self.matrix.apply(vec)

    def _verify(self):
        """F 1 = 1 and F mu_A = mu_B (F (x) F)."""
        F = self.matrix
        if self.source.dim and self.apply(self.source.unit) != self.target.unit:
            raise ShapeMismatch("map does not preserve the unit")
        if F * self.source.mu != self.target.mu * kron(F, F):
            raise ShapeMismatch("map is not multiplicative")

    def __repr__(self):
        return f"AlgebraMap({self.source.label} -> {self.target.label})"


class FlatnessReport:
    """How the target was shown free over the source, and its rank; a map
    that is not faithfully flat raises instead of returning a report."""

    __slots__ = ("free_rank", "mode")

    def __init__(self, free_rank, mode):
        self.free_rank = free_rank
        self.mode = mode


def check_faithfully_flat(f, basis=None):
    """Base-field sources are flat outright and faithful when the target is
    nonzero; otherwise a candidate module basis of the target over the source
    must be supplied and is verified free."""
    B = f.target
    if B.dim == 0:
        raise ZeroTarget("target algebra is zero")
    if f.source.dim == 1:
        return FlatnessReport(B.dim, "field-source")
    if basis is None:
        raise UnsupportedBase(
            "flatness over a non-field source needs a candidate basis")
    for k, vec in enumerate(basis):
        if len(vec) != B.dim:
            raise ShapeMismatch(
                f"candidate basis vector {k} has length {len(vec)}, expected {B.dim}")
    s = len(basis)
    candidates = Matrix.from_cols(B.field, basis) if basis else Matrix.zero(B.field, B.dim, 0)
    # column (a, j) is f(e_a) * beta_j: mu_B (F (x) [beta_1 ... beta_s])
    rank = (B.mu * kron(f.matrix, candidates)).rank()
    if rank != s * f.source.dim:
        raise BasisNotIndependent(
            f"candidate basis is dependent over the source (rank {rank})")
    if rank != B.dim:
        raise BasisNotSpanning(
            f"candidate basis spans a proper subspace (rank {rank} < {B.dim})")
    return FlatnessReport(s, "free-basis")


class AmitsurComplex:
    """The first map d^0 (the algebra map itself, tensored with any
    coefficients) and the differentials d^r: B^(x)r -> B^(x)r+1 between
    realized tensor powers, ``differentials[r - 1]`` for r = 1 .. r_max,
    with the flatness report of the map."""

    __slots__ = ("map", "flatness", "coefficient_dim", "first", "differentials")

    def __init__(self, f, flatness, coefficient_dim, first, differentials):
        self.map = f
        self.flatness = flatness
        self.coefficient_dim = coefficient_dim
        self.first = first
        self.differentials = differentials


def amitsur_complex(f, r_max=3, coefficient_dim=1, budget=None):
    """The complex through tensor degree r_max; the source must be the base
    field (one-dimensional), matching the concrete k-space realization.

    d^r is the alternating sum of the faces that insert the unit at slot i,
    kron(I_{m^i}, +-u, I_{m^(r-i)}); splitting off the face at slot 0 gives
    d^r = u (x) I_{m^r} - I_m (x) d^(r-1), from d^0 = u."""
    if f.source.dim != 1:
        raise UnsupportedBase(
            "tensor powers are realized over the base field; the map source "
            "must be one-dimensional")
    t = coefficient_dim
    if t < 0:
        raise ShapeMismatch(f"coefficient dimension {t} is negative")
    flatness = check_faithfully_flat(f)
    B = f.target
    field = B.field
    m = B.dim
    (budget or Budget()).check_tensor_power(m, r_max + 1)
    # the powers of a one-dimensional B always fit, so the length is capped too
    if r_max + 1 > Budget.TENSOR_DIM:
        raise BudgetExceeded(
            f"{r_max + 1} tensor powers of B exceed cap {Budget.TENSOR_DIM}")
    unit = Matrix.from_cols(field, [B.unit])
    I_m = Matrix.identity(field, m)
    d = unit
    differentials = []
    for r in range(1, r_max + 1):
        d = kron(unit, Matrix.identity(field, m ** r)) - kron(I_m, d)
        differentials.append(d)
    first = f.matrix
    if t != 1:
        ident = Matrix.identity(field, t)
        first = kron(ident, first)
        differentials = [kron(ident, d) for d in differentials]
    return AmitsurComplex(f, flatness, t, first, differentials)


class ExactnessReport:
    __slots__ = ("degrees",)

    def __init__(self, degrees):
        # list of (degree, kernel_rank, image_rank)
        self.degrees = degrees


def check_exactness(complex_):
    """Prove the complex exact with products alone, by a contracting
    homotopy built from its map f: k -> B (Waterhouse, *Introduction to
    Affine Group Schemes*, 1979, ch. 13).

    The composites of consecutive maps must vanish first, so that a
    corrupted differential is caught here.  The section s: B -> k reads the
    coordinate where f(1) is first nonzero, scaled so that s f = 1, and
    h_r = I_t (x) s (x) I_{m^r}: B^(x)r+1 -> B^(x)r applies it to the leading
    slot (t the coefficient dimension).  Then h_0 d^0 = I_t, with d^0 the
    first map, proves d^0 injective, and h_{r+1} d^{r+1} + d^r h_r = I on
    each realized B^(x)r+1 proves exactness there, at degree r.  The ranks
    follow: rank d^0 = t and rank d^r = t m^r - rank d^(r-1), and degree r
    reports (r, rank d^r, rank d^r), the kernel of d^(r+1) and the image of
    d^r."""
    maps = [complex_.first, *complex_.differentials]
    for degree, (a, b) in enumerate(zip(maps, maps[1:])):
        if not (b * a).is_zero():
            raise NotExact(degree, "composite is nonzero")
    field = complex_.map.target.field
    image = complex_.map.matrix.col(0)
    m = len(image)
    j = next(j for j, a in enumerate(image) if a)
    section = Matrix(field, [[image[j].inverse() if l == j else field.zero
                              for l in range(m)]])
    t = complex_.coefficient_dim
    I_t = Matrix.identity(field, t)
    h = kron(I_t, section)
    if h * maps[0] != I_t:
        raise NotExact(0, "first map is not injective")
    report = []
    rank = t
    for r, (d, d_next) in enumerate(zip(maps, maps[1:])):
        h_next = kron(I_t, section, Matrix.identity(field, m ** (r + 1)))
        if h_next * d_next + d * h != Matrix.identity(field, t * m ** (r + 1)):
            raise NotExact(r, "contracting homotopy identity fails")
        report.append((r, rank, rank))
        rank = t * m ** (r + 1) - rank
        h = h_next
    return ExactnessReport(report)


class FreeModuleData:
    """A free module over the target algebra with a candidate descent datum:
    the matrix of phi between the realized tensor products."""

    __slots__ = ("algebra", "rank", "phi")

    def __init__(self, algebra, rank, phi):
        n_mb = rank * algebra.dim * algebra.dim
        if phi.nrows != n_mb or phi.ncols != n_mb:
            raise ShapeMismatch(
                f"phi must be {n_mb} x {n_mb} for rank {rank} over dim {algebra.dim}")
        self.algebra = algebra
        self.rank = rank
        self.phi = phi


def check_cocycle(data):
    """Verify that phi is an isomorphism of modules over the doubled algebra
    and satisfies the triple-tensor identity phi_2 = phi_1 phi_3; raises the
    typed error of the first failure.

    The descent is along the base inclusion k -> B of B's field k, over which
    every tensor product is realized: M' = B^rank has basis (a, i); phi maps
    M' (x) B, basis (a, i, j), to B (x) M', basis (j, a, i)."""
    B = data.algebra
    field = B.field
    m = B.dim
    rank = data.rank
    phi = data.phi

    if not phi.is_invertible():
        raise NotBilinearCompatible("phi is not invertible")
    ident = Matrix.identity(field, rank)
    mults = [B.mult_matrix(e) for e in Matrix.identity(field, m).rows]
    for p, left in enumerate(mults):
        for q, right in enumerate(mults):
            # b_p (x) b_q acting on M' (x) B and on B (x) M'
            if phi * kron(ident, left, right) != kron(left, ident, right) * phi:
                raise NotBilinearCompatible(
                    f"phi is not linear over the doubled algebra at pair ({p}, {q})")

    # triple-tensor realizations: MBB (a,i,j2,j3) / BMB (j1,a,i,j3) /
    # BBM (j1,j2,a,i); phi_2 is phi_1 with its identity slot moved to the
    # middle on both sides
    I_m = Matrix.identity(field, m)
    phi1 = kron(I_m, phi)  # BMB -> BBM
    phi3 = kron(phi, I_m)  # MBB -> BMB
    phi2 = _permute_slots(phi1, rows=((m, m, rank, m), (1, 0, 2, 3)),
                          cols=((m, rank, m, m), (1, 2, 0, 3)))  # MBB -> BBM
    composite = phi1 * phi3
    if composite != phi2:
        witness = next(
            col for col in range(phi1.nrows)
            if composite.col(col) != phi2.col(col))
        ai, j3 = divmod(witness, m)
        ai2, j2 = divmod(ai, m)
        a, i = divmod(ai2, m)
        raise CocycleFailed((a, i, j2, j3))


class ReconstructedModule:
    """The descended module: a base-field basis inside M' plus the verified
    multiplication isomorphism from its scalar extension."""

    __slots__ = ("basis", "iso")

    def __init__(self, basis, iso):
        self.basis = basis
        self.iso = iso

    @property
    def dim(self):
        return len(self.basis)


def reconstruct_module(data):
    """Check the datum (``check_cocycle``), compute M = {m : 1 (x) m =
    phi(m (x) 1)} inside M', build the multiplication map from its scalar
    extension B (x) M back to M', and verify that it is an isomorphism
    inducing the given datum.  As in ``check_cocycle``, the descent is along
    k -> B for B's field k."""
    check_cocycle(data)
    B = data.algebra
    field = B.field
    m = B.dim
    rank = data.rank
    N = rank * m

    # v -> 1 (x) v minus v -> phi(v (x) 1)
    unit = Matrix.from_cols(field, [B.unit])
    I_N = Matrix.identity(field, N)
    difference = kron(unit, I_N) - data.phi * kron(I_N, unit)
    basis = difference.kernel_basis()

    # B (x) M -> M', basis (j, s) -> b_j m_s
    ident = Matrix.identity(field, rank)
    actions = [kron(ident, B.mult_matrix(e)) for e in Matrix.identity(field, m).rows]
    cols = [action.apply(vec) for action in actions for vec in basis]
    iso = Matrix.from_cols(field, cols) if cols else Matrix.zero(field, N, 0)
    if iso.nrows != iso.ncols or not iso.is_invertible():
        raise ReconstructionFailed(
            f"multiplication map B (x) M -> M' is not an isomorphism "
            f"({iso.nrows} x {iso.ncols}, rank {iso.rank() if iso.ncols else 0})")

    # induced datum: phi . (iso (x) id_B) == (id_B (x) iso) . phi_can, where
    # phi_can is the flip (b_j (x) m_s) (x) b_j2 -> b_j (x) (b_j2 (x) m_s)
    t = len(basis)
    I_m = Matrix.identity(field, m)
    phi_can = _permute_slots(Matrix.identity(field, m * t * m), rows=((m, t, m), (0, 2, 1)))
    if data.phi * kron(iso, I_m) != kron(I_m, iso) * phi_can:
        raise ReconstructionFailed("reconstructed module induces a different datum")
    return ReconstructedModule(basis, iso)


def canonical_datum_matrix(B, rank):
    """phi for M' = B (x) M with M free of the given rank: the flip
    (b (x) m) (x) b' -> b (x) (b' (x) m), as a matrix on the realizations."""
    m = B.dim
    return _permute_slots(Matrix.identity(B.field, rank * m * m),
                          rows=((rank, m, m), (1, 0, 2)))


def twist_datum(B, rank, phi, u_matrix):
    """Conjugate a datum by a module automorphism of M': the datum of the
    image module.  ``u_matrix`` is an invertible rank x rank matrix over the
    algebra, given entrywise as coordinate tuples."""
    field = B.field
    # u acts on M' = B^rank by blocks, the multiplication matrices of the
    # entries of u_matrix
    blocks = [[B.mult_matrix(x).rows for x in row] for row in u_matrix]
    u = Matrix(field, [[c for block in block_row for c in block[r]]
                       for block_row in blocks for r in range(B.dim)])
    I_m = Matrix.identity(field, B.dim)
    return FreeModuleData(B, rank, kron(I_m, u) * phi * kron(u.inverse(), I_m))
