"""Faithfully flat descent of modules in the finite-dimensional commutative
setting: finite algebras by structure constants, the Amitsur complex, its
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

A ``FiniteAlgebra`` stores its structure constants sparsely, as the nonzero
(l, s) pairs of each basis product e_i e_j, and proves itself commutative,
unital and associative when it is built.  Associativity is proved on a
generating set S rather than on all dim^3 basis triples: in a commutative
algebra the left nucleus is the whole nucleus, and the nucleus is a subalgebra
(Schafer, *An Introduction to Nonassociative Algebras*, 1966, ch. II), so S in
the left nucleus and S generating give associativity at |S| dim^2 products.
S is chosen greedily from the basis (see ``FiniteAlgebra.verify``): {t} for an
extension on its power basis, {1 (x) u, t (x) 1} for a tensor product of two.
"""

import itertools
import math

from .enumeration import tuples
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


def _kron_vector(u, v):
    """u (x) v as a coordinate tuple; a zero entry of either factor gives a
    zero coordinate without multiplying."""
    return tuple(x for a in u
                 for x in ((a * b if b else b for b in v) if a else (a,) * len(v)))


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


class FiniteAlgebra:
    """A commutative unital algebra of finite dimension over a base field,
    given by structure constants; elements are coordinate tuples.

    ``sc`` is given dense, ``sc[i][j]`` the coordinates of e_i e_j, and kept
    sparse: ``self.sc[i][j]`` is the tuple of (l, s) with s the nonzero l-th
    coordinate."""

    __slots__ = ("field", "dim", "sc", "unit", "factors", "label")

    def __init__(self, field, sc, unit, label="algebra", factors=None):
        # factors: the pair (A, B) of a tensor product A (x) B, else None
        self.field = field
        self.dim = dim = len(sc)
        sparse = []
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
            sparse.append(tuple(tuple((l, s) for l, s in enumerate(v) if s) for v in row))
        self.sc = tuple(sparse)
        self.unit = tuple(unit)
        self.factors = factors
        self.label = label
        if len(self.unit) != self.dim:
            raise ShapeMismatch("unit vector has wrong length")
        self.verify()

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
        sc = [[ext.coords(a * b) for b in basis] for a in basis]
        return cls(ext.base, sc, ext.coords(ext.one), label=repr(ext))

    @classmethod
    def product(cls, factors):
        """Direct product; basis is the concatenation of the factor bases."""
        if not factors:
            raise ShapeMismatch("empty product")
        field = factors[0].field
        if any(a.field != field for a in factors):
            raise FieldMismatch("product factors over different fields")
        dim = sum(a.dim for a in factors)
        zero = field.zero
        zero_vec = (zero,) * dim
        sc = []
        before = 0
        for a in factors:
            after = dim - before - a.dim
            for row in a.dense_constants():
                sc.append([zero_vec] * before
                          + [(zero,) * before + v + (zero,) * after for v in row]
                          + [zero_vec] * after)
            before += a.dim
        unit = tuple(c for a in factors for c in a.unit)
        label = " x ".join(a.label for a in factors)
        return cls(field, sc, unit, label=label)

    @classmethod
    def tensor(cls, A, B):
        """A tensor B over the base field, basis pairs (i, j) with index
        i * dim(B) + j."""
        if A.field != B.field:
            raise FieldMismatch("tensor factors over different fields")
        b_sc = B.dense_constants()
        sc = [[_kron_vector(u, v) for u in a_row for v in b_row]
              for a_row in A.dense_constants() for b_row in b_sc]
        return cls(A.field, sc, _kron_vector(A.unit, B.unit),
                   label=f"({A.label}) (x) ({B.label})", factors=(A, B))

    # -- arithmetic ---------------------------------------------------------

    def zero_vector(self):
        return (self.field.zero,) * self.dim

    def add(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def mul(self, u, v):
        out = [self.field.zero] * self.dim
        right = [(j, cj) for j, cj in enumerate(v) if cj]
        for ci, row in zip(u, self.sc):
            if not ci:
                continue
            for j, cj in right:
                coeff = ci * cj
                for l, s in row[j]:
                    out[l] = out[l] + coeff * s
        return tuple(out)

    def basis_product(self, i, j):
        """e_i * e_j as a coordinate tuple."""
        out = [self.field.zero] * self.dim
        for l, s in self.sc[i][j]:
            out[l] = s
        return tuple(out)

    def dense_constants(self):
        """The structure constants in the dense form ``__init__`` takes."""
        return [[self.basis_product(i, j) for j in range(self.dim)]
                for i in range(self.dim)]

    def scale(self, c, v):
        return tuple(c * a for a in v)

    def mult_matrix(self, u):
        """Matrix of v -> u * v on the basis."""
        return Matrix.from_cols(
            self.field, [self.mul(u, e) for e in Matrix.identity(self.field, self.dim).rows])

    def embed_left(self, vec_a):
        """a (x) 1 for a tensor algebra."""
        return _kron_vector(vec_a, self._tensor_factors()[1].unit)

    def embed_right(self, vec_b):
        """1 (x) b for a tensor algebra."""
        return _kron_vector(self._tensor_factors()[0].unit, vec_b)

    def _tensor_factors(self):
        if self.factors is None:
            raise ShapeMismatch("not a tensor algebra")
        return self.factors

    def elements(self):
        if not self.field.is_finite:
            raise BudgetExceeded("cannot enumerate over an infinite base field")
        yield from tuples(list(self.field.elements()), self.dim)

    def verify(self):
        """Prove the unit law, commutativity and associativity.

        The unit law is checked on the basis, commutativity on the structure
        constants themselves (``sc[i][j] == sc[j][i]``).  Associativity then
        follows from a generating set S in the left nucleus, the n with
        (n x) y = n (x y) for all x, y: in a commutative algebra the left
        nucleus is the whole nucleus, and the nucleus is a subalgebra that
        contains 1 (Schafer, *An Introduction to Nonassociative Algebras*,
        1966, ch. II), so it contains every word s1 (s2 (... (sk 1))) over S
        and, when those words span, the whole algebra.  The check is
        (s e_x) e_y == s (e_x e_y) for s in S and all basis elements: |S| dim^2
        products instead of dim^3.

        S is chosen greedily from the basis by ``_generators``, which grows the
        span of the words over S until it is the whole algebra.  The unit law
        and commutativity come first, since the proof of associativity needs
        them; the first law that fails is reported with the same message and
        indices as a check of every basis pair and triple gives.
        """
        basis = Matrix.identity(self.field, self.dim).rows
        for i, bi in enumerate(basis):
            if self.mul(self.unit, bi) != bi or self.mul(bi, self.unit) != bi:
                raise ShapeMismatch(f"unit law fails on basis element {i}")
            for j in range(i + 1, self.dim):
                if self.sc[i][j] != self.sc[j][i]:
                    raise ShapeMismatch(f"product not commutative at ({i}, {j})")
        generators = self._generators(basis)
        for x in range(self.dim):
            left = [self.basis_product(s, x) for s in generators]
            for y, by in enumerate(basis):
                xy = self.basis_product(x, y)
                for s, sx in zip(generators, left):
                    if self.mul(sx, by) != self.mul(basis[s], xy):
                        raise ShapeMismatch("product not associative")

    def _generators(self, basis):
        """Indices of a generating set S chosen greedily from the basis.

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
        for k, e in enumerate(basis):
            if grow(e):
                generators.append(k)
                pending.extend((k, w) for w in words)
                while pending:
                    s, w = pending.pop()
                    grow(self.mul(basis[s], w))
        return generators

    def __repr__(self):
        return f"FiniteAlgebra({self.label}, dim {self.dim} over {self.field!r})"


class AlgebraMap:
    """A unital multiplicative linear map between finite algebras."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if target.dim == 0:
            matrix = Matrix(target.field, [])
        elif matrix.nrows != target.dim or matrix.ncols != source.dim:
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
        if self.target.dim == 0:
            return
        src_basis = Matrix.identity(self.source.field, self.source.dim).rows
        if self.source.dim and self.apply(self.source.unit) != self.target.unit:
            raise ShapeMismatch("map does not preserve the unit")
        for bi in src_basis:
            for bj in src_basis:
                lhs = self.apply(self.source.mul(bi, bj))
                rhs = self.target.mul(self.apply(bi), self.apply(bj))
                if lhs != rhs:
                    raise ShapeMismatch("map is not multiplicative")

    def __repr__(self):
        return f"AlgebraMap({self.source.label} -> {self.target.label})"


class FlatnessReport:
    __slots__ = ("flat", "faithful", "free_rank", "mode")

    def __init__(self, flat, faithful, free_rank, mode):
        self.flat = flat
        self.faithful = faithful
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
        return FlatnessReport(True, True, B.dim, "field-source")
    if basis is None:
        raise UnsupportedBase(
            "flatness over a non-field source needs a candidate basis")
    A = f.source
    field = B.field
    s = len(basis)
    cols = []
    for a_vec in Matrix.identity(field, A.dim).rows:
        fa = f.apply(a_vec)
        for beta in basis:
            cols.append(list(B.mul(fa, tuple(beta))))
    matrix = Matrix.from_cols(field, cols)
    rank = matrix.rank()
    if rank != s * A.dim:
        raise BasisNotIndependent(
            f"candidate basis is dependent over the source (rank {rank})")
    if rank != B.dim:
        raise BasisNotSpanning(
            f"candidate basis spans a proper subspace (rank {rank} < {B.dim})")
    return FlatnessReport(True, True, s, "free-basis")


class AmitsurComplex:
    """The first map d^0 (the algebra map itself, tensored with any
    coefficients) and the differentials d^r: B^(x)r -> B^(x)r+1 between
    realized tensor powers, ``differentials[r - 1]`` for r = 1 .. r_max."""

    __slots__ = ("map", "coefficient_dim", "first", "differentials")

    def __init__(self, f, coefficient_dim, first, differentials):
        self.map = f
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
    check_faithfully_flat(f)
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
    return AmitsurComplex(f, t, first, differentials)


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


class CocycleReport:
    __slots__ = ("data", "bilinear_pairs", "triple_dim")

    def __init__(self, data, bilinear_pairs, triple_dim):
        self.data = data
        self.bilinear_pairs = bilinear_pairs
        self.triple_dim = triple_dim


def check_cocycle(data, f):
    """Verify that phi is an isomorphism of modules over the doubled algebra
    and satisfies the triple-tensor identity phi_2 = phi_1 phi_3.

    M' = B^rank has basis (a, i); phi maps M' (x) B, basis (a, i, j), to
    B (x) M', basis (j, a, i)."""
    if f.source.dim != 1:
        raise UnsupportedBase("module descent is realized over a field source")
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
    dim3 = phi1.nrows
    composite = phi1 * phi3
    if composite != phi2:
        witness = next(
            col for col in range(dim3)
            if composite.col(col) != phi2.col(col))
        ai, j3 = divmod(witness, m)
        ai2, j2 = divmod(ai, m)
        a, i = divmod(ai2, m)
        raise CocycleFailed((a, i, j2, j3))
    return CocycleReport(data, m * m, dim3)


class ReconstructedModule:
    """The descended module: a base-field basis inside M' plus the verified
    multiplication isomorphism from its scalar extension."""

    __slots__ = ("data", "basis", "iso")

    def __init__(self, data, basis, iso):
        self.data = data
        self.basis = basis
        self.iso = iso

    @property
    def dim(self):
        return len(self.basis)


def reconstruct_module(data, f):
    """Compute M = {m : 1 (x) m = phi(m (x) 1)}, build the multiplication map
    from its scalar extension back to M', and verify it is an isomorphism
    inducing the given datum."""
    check_cocycle(data, f)
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
    return ReconstructedModule(data, basis, iso)


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
