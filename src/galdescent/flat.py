"""Faithfully flat descent of modules in the finite-dimensional commutative
setting: finite algebras by structure constants, the Amitsur complex, its
exactness, cocycle validation, and module reconstruction.

Every tensor power is realized concretely as a vector space over the base
field with tuple-indexed coordinates, so each theorem reduces to an exact
matrix identity.
"""

import itertools

from .errors import (
    BasisNotIndependent,
    BasisNotSpanning,
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
from .linalg import Matrix

TENSOR_DIM_CAP = 4096


class FiniteAlgebra:
    """A commutative unital algebra of finite dimension over a base field,
    given by structure constants; elements are coordinate tuples."""

    __slots__ = ("field", "dim", "sc", "unit", "ext", "factors", "label")

    def __init__(self, field, sc, unit, label="algebra", ext=None, factors=None):
        self.field = field
        self.dim = len(sc)
        self.sc = tuple(tuple(tuple(v) for v in row) for row in sc)
        self.unit = tuple(unit)
        self.ext = ext
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
        algebra = cls.__new__(cls)
        algebra.field = field
        algebra.dim = 0
        algebra.sc = ()
        algebra.unit = ()
        algebra.ext = None
        algebra.factors = None
        algebra.label = "0"
        return algebra

    @classmethod
    def from_extension(cls, ext):
        """The extension field as an algebra over its base, on the power
        basis."""
        field = ext.base
        basis = [ext.one]
        for _ in range(ext.degree - 1):
            basis.append(basis[-1] * ext.generator)
        sc = [[ext.coords(a * b) for b in basis] for a in basis]
        unit = ext.coords(ext.one)
        return cls(field, sc, unit, label=repr(ext), ext=ext)

    @classmethod
    def product(cls, factors):
        """Direct product; basis is the concatenation of the factor bases."""
        if not factors:
            raise ShapeMismatch("empty product")
        field = factors[0].field
        dim = sum(a.dim for a in factors)
        offsets = []
        pos = 0
        for a in factors:
            if a.field != field:
                raise FieldMismatch("product factors over different fields")
            offsets.append(pos)
            pos += a.dim
        zero = field.zero

        def embed(vec, offset):
            out = [zero] * dim
            for i, c in enumerate(vec):
                out[offset + i] = c
            return tuple(out)

        sc = [[None] * dim for _ in range(dim)]
        for f_idx, a in enumerate(factors):
            off = offsets[f_idx]
            for i in range(dim):
                for j in range(dim):
                    if sc[i][j] is None:
                        sc[i][j] = (zero,) * dim
            for i in range(a.dim):
                for j in range(a.dim):
                    sc[off + i][off + j] = embed(a.sc[i][j], off)
        unit = [zero] * dim
        for f_idx, a in enumerate(factors):
            for i, c in enumerate(a.unit):
                unit[offsets[f_idx] + i] = c
        label = " x ".join(a.label for a in factors)
        return cls(field, sc, tuple(unit), label=label, factors=tuple(factors))

    @classmethod
    def tensor(cls, A, B):
        """A tensor B over the base field, basis pairs (i, j) with index
        i * dim(B) + j."""
        if A.field != B.field:
            raise FieldMismatch("tensor factors over different fields")
        field = A.field
        dim = A.dim * B.dim
        zero = field.zero
        sc = [[None] * dim for _ in range(dim)]
        for i1 in range(A.dim):
            for j1 in range(B.dim):
                for i2 in range(A.dim):
                    for j2 in range(B.dim):
                        left = A.sc[i1][i2]
                        right = B.sc[j1][j2]
                        vec = [zero] * dim
                        for i, ci in enumerate(left):
                            if not ci:
                                continue
                            for j, cj in enumerate(right):
                                if cj:
                                    vec[i * B.dim + j] = ci * cj
                        sc[i1 * B.dim + j1][i2 * B.dim + j2] = tuple(vec)
        unit = [zero] * dim
        for i, ci in enumerate(A.unit):
            if not ci:
                continue
            for j, cj in enumerate(B.unit):
                if cj:
                    unit[i * B.dim + j] = ci * cj
        return cls(field, sc, tuple(unit),
                   label=f"({A.label}) (x) ({B.label})", factors=(A, B))

    # -- arithmetic ---------------------------------------------------------

    def zero_vector(self):
        return (self.field.zero,) * self.dim

    def add(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def mul(self, u, v):
        out = [self.field.zero] * self.dim
        for i, ci in enumerate(u):
            if not ci:
                continue
            row = self.sc[i]
            for j, cj in enumerate(v):
                if not cj:
                    continue
                coeff = ci * cj
                for l, s in enumerate(row[j]):
                    if s:
                        out[l] = out[l] + coeff * s
        return tuple(out)

    def scale(self, c, v):
        return tuple(c * a for a in v)

    def mult_matrix(self, u):
        """Matrix of v -> u * v on the basis."""
        cols = []
        for j in range(self.dim):
            basis_vec = tuple(self.field.one if i == j else self.field.zero
                              for i in range(self.dim))
            cols.append(self.mul(u, basis_vec))
        return Matrix.from_cols(self.field, cols)

    def embed_left(self, vec_a):
        """a (x) 1 for a tensor algebra."""
        A, B = self._tensor_factors()
        zero = self.field.zero
        out = [zero] * self.dim
        for i, ci in enumerate(vec_a):
            if not ci:
                continue
            for j, cj in enumerate(B.unit):
                if cj:
                    out[i * B.dim + j] = ci * cj
        return tuple(out)

    def embed_right(self, vec_b):
        """1 (x) b for a tensor algebra."""
        A, B = self._tensor_factors()
        zero = self.field.zero
        out = [zero] * self.dim
        for i, ci in enumerate(A.unit):
            if not ci:
                continue
            for j, cj in enumerate(vec_b):
                if cj:
                    out[i * B.dim + j] = ci * cj
        return tuple(out)

    def _tensor_factors(self):
        if not self.factors or len(self.factors) != 2:
            raise ShapeMismatch("not a tensor algebra")
        return self.factors

    def elements(self):
        if not self.field.is_finite:
            raise BudgetExceeded("cannot enumerate over an infinite base field")
        # the first coordinate varies fastest
        for coords in itertools.product(list(self.field.elements()), repeat=self.dim):
            yield coords[::-1]

    def verify(self):
        """Associativity, commutativity, and the unit law on basis elements."""
        basis = [tuple(self.field.one if i == j else self.field.zero
                       for i in range(self.dim)) for j in range(self.dim)]
        for i, bi in enumerate(basis):
            if self.mul(self.unit, bi) != bi or self.mul(bi, self.unit) != bi:
                raise ShapeMismatch(f"unit law fails on basis element {i}")
            for j, bj in enumerate(basis):
                if self.mul(bi, bj) != self.mul(bj, bi):
                    raise ShapeMismatch(f"product not commutative at ({i}, {j})")
        for bi in basis:
            for bj in basis:
                for bl in basis:
                    if self.mul(self.mul(bi, bj), bl) != self.mul(bi, self.mul(bj, bl)):
                        raise ShapeMismatch("product not associative")

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
        src_basis = [tuple(self.source.field.one if i == j else self.source.field.zero
                           for i in range(self.source.dim))
                     for j in range(self.source.dim)]
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
    for l in range(A.dim):
        a_vec = tuple(field.one if i == l else field.zero for i in range(A.dim))
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
    """Matrices d^0, d^1, ... between realized tensor powers, together with
    the first map (the algebra map itself, tensored with any coefficients)."""

    __slots__ = ("map", "coefficient_dim", "first", "differentials")

    def __init__(self, f, coefficient_dim, first, differentials):
        self.map = f
        self.coefficient_dim = coefficient_dim
        self.first = first
        self.differentials = differentials


def _tuple_index(idx, m):
    out = 0
    for i in idx:
        out = out * m + i
    return out


def _face_matrix(B, r, position):
    """e_position: B^{(x) r} -> B^{(x) r+1}, inserting the unit."""
    field = B.field
    m = B.dim
    rows = m ** (r + 1)
    cols = m ** r
    zero = field.zero
    entries = [[zero] * cols for _ in range(rows)]
    for source in itertools.product(range(m), repeat=r):
        col = _tuple_index(source, m)
        for l, u in enumerate(B.unit):
            if not u:
                continue
            target = source[:position] + (l,) + source[position:]
            entries[_tuple_index(target, m)][col] = u
    return Matrix(field, entries)


def amitsur_complex(f, r_max=3, coefficient_dim=None):
    """The complex through tensor degree r_max; the source must be the base
    field (one-dimensional), matching the concrete k-space realization."""
    if f.source.dim != 1:
        raise UnsupportedBase(
            "tensor powers are realized over the base field; the map source "
            "must be one-dimensional")
    check_faithfully_flat(f)
    B = f.target
    field = B.field
    m = B.dim
    if m ** (r_max + 1) > TENSOR_DIM_CAP:
        raise BudgetExceeded(
            f"dim B^(x){r_max + 1} = {m ** (r_max + 1)} exceeds cap {TENSOR_DIM_CAP}")
    differentials = []
    for r in range(1, r_max + 1):
        faces = [_face_matrix(B, r, i) for i in range(r + 1)]
        d = faces[0]
        sign = -1
        for e in faces[1:]:
            d = d + e.map_entries(lambda a, s=sign: a * field.from_int(s))
            sign = -sign
        differentials.append(d)
    first = f.matrix
    t = coefficient_dim
    if t is not None and t != 1:
        ident = Matrix.identity(field, t)
        from .linalg import kron

        first = kron(ident, first)
        differentials = [kron(ident, d) for d in differentials]
    complex_ = AmitsurComplex(f, t or 1, first, differentials)
    for a, b in zip(complex_.differentials, complex_.differentials[1:]):
        if b * a != Matrix.zero(field, b.nrows, a.ncols):
            raise NotExact(-1, "consecutive differentials do not compose to zero")
    if complex_.differentials:
        d0 = complex_.differentials[0]
        if d0 * first != Matrix.zero(field, d0.nrows, first.ncols):
            raise NotExact(0, "d0 after the first map is nonzero")
    return complex_


class ExactnessReport:
    __slots__ = ("degrees",)

    def __init__(self, degrees):
        # list of (degree, kernel_rank, image_rank)
        self.degrees = degrees


def check_exactness(complex_, expect_first_kernel=None):
    """Rank identities degree by degree; composites are re-verified so that a
    corrupted differential is caught here."""
    field = complex_.first.field
    first = complex_.first
    ds = complex_.differentials
    report = []
    if ds:
        if ds[0] * first != Matrix.zero(field, ds[0].nrows, first.ncols):
            raise NotExact(0, "first map does not land in the kernel")
    first_rank = first.rank()
    if first_rank != first.ncols:
        raise NotExact(0, "first map is not injective")
    expected = expect_first_kernel if expect_first_kernel is not None else first.ncols
    if ds:
        kernel_rank = ds[0].ncols - ds[0].rank()
        if kernel_rank != expected or first_rank != expected:
            raise NotExact(0, f"kernel rank {kernel_rank} != {expected}")
        report.append((0, kernel_rank, first_rank))
    for degree in range(1, len(ds)):
        prev, cur = ds[degree - 1], ds[degree]
        if cur * prev != Matrix.zero(field, cur.nrows, prev.ncols):
            raise NotExact(degree, "composite is nonzero")
        kernel_rank = cur.ncols - cur.rank()
        image_rank = prev.rank()
        if kernel_rank != image_rank:
            raise NotExact(degree,
                           f"kernel rank {kernel_rank} != image rank {image_rank}")
        report.append((degree, kernel_rank, image_rank))
    return ExactnessReport(report)


def verify_homotopy(complex_, section):
    """With a section g of f (a matrix B -> k cutting the unit to 1), check
    the contracting identities k_0 d^0 + f g = 1 and
    k_{r+1} d^{r+1} + d^r k_r = 1 on every realized degree."""
    f = complex_.map
    B = f.target
    field = B.field
    m = B.dim
    if complex_.coefficient_dim != 1:
        raise UnsupportedBase("homotopy check runs on the plain complex")
    if section.nrows != 1 or section.ncols != m:
        raise ShapeMismatch("section must be a 1 x dim(B) matrix")
    if section * f.matrix != Matrix.identity(field, 1):
        raise ShapeMismatch("supplied matrix is not a section of the map")

    def homotopy_matrix(r):
        # k_r: B^{(x) r+2} -> B^{(x) r+1}: drop the leading slot, scale by its
        # section value
        rows = m ** (r + 1)
        cols = m ** (r + 2)
        zero = field.zero
        entries = [[zero] * cols for _ in range(rows)]
        for col in range(cols):
            first_idx = col // rows
            rest = col % rows
            g_val = section.rows[0][first_idx]
            if g_val:
                entries[rest][col] = g_val
        return Matrix(field, entries)

    ds = complex_.differentials
    if not ds:
        return []
    results = []
    total = homotopy_matrix(0) * ds[0] + f.matrix * section
    results.append((-1, total == Matrix.identity(field, m)))
    for r in range(len(ds) - 1):
        total = homotopy_matrix(r + 1) * ds[r + 1] + ds[r] * homotopy_matrix(r)
        results.append((r, total == Matrix.identity(field, m ** (r + 2))))
    if not all(ok for _, ok in results):
        bad = next(r for r, ok in results if not ok)
        raise NotExact(bad + 2, "contracting homotopy identity fails")
    return results


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


def _module_action_matrices(B, rank):
    """For M' = B^rank with basis (a, i): matrices of left multiplication by
    the algebra basis elements."""
    field = B.field
    m = B.dim
    N = rank * m
    out = []
    for p in range(m):
        zero = field.zero
        entries = [[zero] * N for _ in range(N)]
        for a in range(rank):
            for i in range(m):
                product = B.sc[p][i]
                for l, c in enumerate(product):
                    if c:
                        entries[a * m + l][a * m + i] = c
        out.append(Matrix(field, entries))
    return out


def _mb_action(B, rank, p, q):
    """(b_p (x) b_q) acting on M' (x) B: basis (a, i, j) -> (a, p i, q j)."""
    field = B.field
    m = B.dim
    N = rank * m
    dim = N * m
    zero = field.zero
    entries = [[zero] * dim for _ in range(dim)]
    for a in range(rank):
        for i in range(m):
            left = B.sc[p][i]
            for j in range(m):
                right = B.sc[q][j]
                col = (a * m + i) * m + j
                for l1, c1 in enumerate(left):
                    if not c1:
                        continue
                    for l2, c2 in enumerate(right):
                        if c2:
                            row = (a * m + l1) * m + l2
                            entries[row][col] = entries[row][col] + c1 * c2
    return Matrix(field, entries)


def _bm_action(B, rank, p, q):
    """(b_p (x) b_q) acting on B (x) M': basis (j, a, i) -> (p j, a, q i)."""
    field = B.field
    m = B.dim
    N = rank * m
    dim = m * N
    zero = field.zero
    entries = [[zero] * dim for _ in range(dim)]
    for j in range(m):
        left = B.sc[p][j]
        for a in range(rank):
            for i in range(m):
                right = B.sc[q][i]
                col = (j * rank + a) * m + i
                for l1, c1 in enumerate(left):
                    if not c1:
                        continue
                    for l2, c2 in enumerate(right):
                        if c2:
                            row = (l1 * rank + a) * m + l2
                            entries[row][col] = entries[row][col] + c1 * c2
    return Matrix(field, entries)


class CocycleReport:
    __slots__ = ("data", "bilinear_pairs", "triple_dim")

    def __init__(self, data, bilinear_pairs, triple_dim):
        self.data = data
        self.bilinear_pairs = bilinear_pairs
        self.triple_dim = triple_dim


def check_cocycle(data, f):
    """Verify that phi is an isomorphism of modules over the doubled algebra
    and satisfies the triple-tensor identity phi_2 = phi_1 phi_3."""
    if f.source.dim != 1:
        raise UnsupportedBase("module descent is realized over a field source")
    B = data.algebra
    field = B.field
    m = B.dim
    rank = data.rank
    N = rank * m
    phi = data.phi

    if not phi.is_invertible():
        raise NotBilinearCompatible("phi is not invertible")
    for p in range(m):
        for q in range(m):
            if phi * _mb_action(B, rank, p, q) != _bm_action(B, rank, p, q) * phi:
                raise NotBilinearCompatible(
                    f"phi is not linear over the doubled algebra at pair ({p}, {q})")

    # triple-tensor realizations; index layouts, leftmost slowest:
    #   MBB (a,i,j2,j3) / BMB (j1,a,i,j3) / BBM (j1,j2,a,i)
    dim3 = N * m * m
    zero = field.zero

    def phi_entries():
        for out_row in range(phi.nrows):
            row = phi.rows[out_row]
            for col in range(phi.ncols):
                if row[col]:
                    yield out_row, col, row[col]

    phi1 = [[zero] * dim3 for _ in range(dim3)]  # BMB -> BBM
    phi2 = [[zero] * dim3 for _ in range(dim3)]  # MBB -> BBM
    phi3 = [[zero] * dim3 for _ in range(dim3)]  # MBB -> BMB
    for out_row, col, value in phi_entries():
        # phi[(p, a', i'), (a, i, j)]
        p, rest = divmod(out_row, rank * m)
        a_out, i_out = divmod(rest, m)
        ai, j_in = divmod(col, m)
        a_in, i_in = divmod(ai, m)
        for extra in range(m):
            # phi1: id on the leading B slot
            r1 = ((extra * m + p) * rank + a_out) * m + i_out
            c1 = ((extra * rank + a_in) * m + i_in) * m + j_in
            phi1[r1][c1] = value
            # phi2: id on the middle B slot
            r2 = ((p * m + extra) * rank + a_out) * m + i_out
            c2 = ((a_in * m + i_in) * m + extra) * m + j_in
            phi2[r2][c2] = value
            # phi3: id on the trailing B slot
            r3 = ((p * rank + a_out) * m + i_out) * m + extra
            c3 = ((a_in * m + i_in) * m + j_in) * m + extra
            phi3[r3][c3] = value
    phi1 = Matrix(field, phi1)
    phi2 = Matrix(field, phi2)
    phi3 = Matrix(field, phi3)
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


def reconstruct_module(data, f, check=True):
    """Compute M = {m : 1 (x) m = phi(m (x) 1)}, build the multiplication map
    from its scalar extension back to M', and verify it is an isomorphism
    inducing the given datum."""
    if check:
        check_cocycle(data, f)
    B = data.algebra
    field = B.field
    m = B.dim
    rank = data.rank
    N = rank * m
    zero = field.zero

    # E0: v -> 1 (x) v; E1: v -> v (x) 1
    e0 = [[zero] * N for _ in range(m * N)]
    e1 = [[zero] * N for _ in range(N * m)]
    for a in range(rank):
        for i in range(m):
            col = a * m + i
            for l, u in enumerate(B.unit):
                if u:
                    e0[(l * rank + a) * m + i][col] = u
                    e1[(a * m + i) * m + l][col] = u
    e0 = Matrix(field, e0)
    e1 = Matrix(field, e1)
    difference = e0 - data.phi * e1
    basis = difference.kernel_basis()

    action = _module_action_matrices(B, rank)
    cols = []
    for j in range(m):
        for vec in basis:
            cols.append(list(action[j].apply(vec)))
    iso = Matrix.from_cols(field, cols) if cols else Matrix.zero(field, N, 0)
    if iso.nrows != iso.ncols or not iso.is_invertible():
        raise ReconstructionFailed(
            f"multiplication map B (x) M -> M' is not an isomorphism "
            f"({iso.nrows} x {iso.ncols}, rank {iso.rank() if iso.ncols else 0})")

    # induced datum: phi . (iso (x) id_B) == (id_B (x) iso) . phi_canonical
    t = len(basis)
    dim_bm = m * t
    phi_can = [[zero] * (dim_bm * m) for _ in range(m * dim_bm)]
    for j in range(m):
        for s in range(t):
            for j2 in range(m):
                # (b_j (x) m_s) (x) b_j2 -> b_j (x) (b_j2 (x) m_s)
                col = (j * t + s) * m + j2
                row = (j * m + j2) * t + s
                phi_can[row][col] = field.one
    phi_can = Matrix(field, phi_can)

    iso_x_id = [[zero] * (dim_bm * m) for _ in range(N * m)]
    for col_bm in range(dim_bm):
        for j2 in range(m):
            col = col_bm * m + j2
            for row_n in range(N):
                value = iso.rows[row_n][col_bm]
                if value:
                    iso_x_id[row_n * m + j2][col] = value
    iso_x_id = Matrix(field, iso_x_id)

    id_x_iso = [[zero] * (m * dim_bm) for _ in range(m * N)]
    for j in range(m):
        for col_bm in range(dim_bm):
            col = j * dim_bm + col_bm
            for row_n in range(N):
                value = iso.rows[row_n][col_bm]
                if value:
                    id_x_iso[j * N + row_n][col] = value
    id_x_iso = Matrix(field, id_x_iso)

    if data.phi * iso_x_id != id_x_iso * phi_can:
        raise ReconstructionFailed("reconstructed module induces a different datum")
    return ReconstructedModule(data, basis, iso)


def canonical_datum_matrix(B, rank):
    """phi for M' = B (x) M with M free of the given rank: the flip
    (b (x) m) (x) b' -> b (x) (b' (x) m), as a matrix on the realizations."""
    field = B.field
    m = B.dim
    N = rank * m
    zero = field.zero
    entries = [[zero] * (N * m) for _ in range(m * N)]
    for a in range(rank):
        for i in range(m):
            for j in range(m):
                col = (a * m + i) * m + j
                row = (i * rank + a) * m + j
                entries[row][col] = field.one
    return Matrix(field, entries)


def twist_datum(B, rank, phi, u_matrix):
    """Conjugate a datum by a module automorphism of M': the datum of the
    image module.  ``u_matrix`` is an invertible rank x rank matrix over the
    algebra, given entrywise as coordinate tuples."""
    field = B.field
    m = B.dim
    N = rank * m
    zero = field.zero
    u = [[zero] * N for _ in range(N)]
    for a_out in range(rank):
        for a_in in range(rank):
            block = B.mult_matrix(u_matrix[a_out][a_in])
            for i_out in range(m):
                for i_in in range(m):
                    u[a_out * m + i_out][a_in * m + i_in] = block.rows[i_out][i_in]
    u = Matrix(field, u)
    u_inv = u.inverse()

    def on_mb(mat):
        out = [[zero] * (N * m) for _ in range(N * m)]
        for r in range(N):
            for c in range(N):
                value = mat.rows[r][c]
                if value:
                    for j in range(m):
                        out[r * m + j][c * m + j] = value
        return Matrix(field, out)

    def on_bm(mat):
        out = [[zero] * (m * N) for _ in range(m * N)]
        for j in range(m):
            for r in range(N):
                for c in range(N):
                    value = mat.rows[r][c]
                    if value:
                        out[j * N + r][j * N + c] = value
        return Matrix(field, out)

    return FreeModuleData(B, rank, on_bm(u) * phi * on_mb(u_inv))
