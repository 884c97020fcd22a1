"""Dense exact linear algebra over any of the library's fields.

Everything reduces to row echelon computations; matrices are immutable and
field-generic (the same code runs over Q, F_p and extensions).  Vectors are
plain tuples of field elements.  Sums, differences, products and row
eliminations skip zero entries instead of computing with them; the matrices
that descent builds are mostly zeros.
"""

from .errors import ShapeMismatch, SingularMatrix
from .extension import ExtensionField
from .fields import FieldElement


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ShapeMismatch("ragged rows")

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def from_cols(cls, field, cols):
        if not cols:
            return cls(field, [])
        if any(len(col) != len(cols[0]) for col in cols):
            raise ShapeMismatch("ragged columns")
        return cls(field, [[col[i] for col in cols] for i in range(len(cols[0]))])

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(self.field, [[a + b if b else a for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(self.field, [[a - b if b else a for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.field, [[-a for a in r] for r in self.rows])

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeMismatch(f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return Matrix(self.field, [[a * other for a in r] for r in self.rows])
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        # row i of the product is sum_k a_ik * (row k of other), over the
        # nonzero a_ik and the nonzero entries of row k only
        sparse = [[(j, b) for j, b in enumerate(row) if b] for row in other.rows]
        zero = self.field.zero
        out = []
        for r in self.rows:
            acc = [zero] * other.ncols
            for a, entries in zip(r, sparse):
                if a:
                    for j, b in entries:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return Matrix(self.field, out)

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise ShapeMismatch(f"vector length {len(vec)} vs {self.ncols} columns")
        zero = self.field.zero
        out = []
        for r in self.rows:
            acc = zero
            for a, b in zip(r, vec):
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ShapeMismatch("row counts differ")
        return Matrix(self.field, [r1 + r2 for r1, r2 in zip(self.rows, other.rows)])

    def map_entries(self, func):
        return Matrix(self.field, [[func(a) for a in r] for r in self.rows])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.rows))

    def rref(self):
        """Reduced row echelon form: returns (matrix, pivot column tuple)."""
        rows = [list(r) for r in self.rows]
        pivots = []
        rank = 0
        for col in range(self.ncols):
            pivot_row = None
            for i in range(rank, self.nrows):
                if rows[i][col]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            inv = rows[rank][col].inverse()
            rows[rank] = [a * inv if a else a for a in rows[rank]]
            # only the pivot row's nonzero entries change another row
            entries = [(j, b) for j, b in enumerate(rows[rank]) if b]
            for i in range(self.nrows):
                factor = rows[i][col]
                if i != rank and factor:
                    row = rows[i]
                    for j, b in entries:
                        row[j] = row[j] - factor * b
            pivots.append(col)
            rank += 1
            if rank == self.nrows:
                break
        return Matrix(self.field, rows), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis vectors of the right kernel, one per free column."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        zero, one = self.field.zero, self.field.one
        basis = []
        for f in free:
            vec = [zero] * self.ncols
            vec[f] = one
            for i, p in enumerate(pivots):
                vec[p] = -reduced.rows[i][f]
            basis.append(tuple(vec))
        return basis

    def inverse(self):
        if self.nrows != self.ncols:
            raise ShapeMismatch("inverse of a non-square matrix")
        aug = self.hstack(Matrix.identity(self.field, self.nrows))
        reduced, pivots = aug.rref()
        if len(pivots) != self.nrows or any(p >= self.nrows for p in pivots):
            raise SingularMatrix(f"rank {len(pivots)} < {self.nrows}")
        return Matrix(self.field, [r[self.nrows:] for r in reduced.rows])

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def __repr__(self):
        body = "; ".join("[" + ", ".join(repr(a) for a in r) + "]" for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


class LinearSolution:
    """Particular solution plus kernel basis, or inconsistency marker."""

    __slots__ = ("particular", "kernel", "consistent")

    def __init__(self, particular, kernel, consistent):
        self.particular = particular
        self.kernel = kernel
        self.consistent = consistent


def solve_linear(A, b):
    """Exact solution description of A x = b for a column vector b (tuple)."""
    if len(b) != A.nrows:
        raise ShapeMismatch(f"b has length {len(b)}, A has {A.nrows} rows")
    aug = A.hstack(Matrix.from_cols(A.field, [list(b)]))
    reduced, pivots = aug.rref()
    if any(p == A.ncols for p in pivots):
        return LinearSolution(None, [], False)
    zero = A.field.zero
    particular = [zero] * A.ncols
    for i, p in enumerate(pivots):
        particular[p] = reduced.rows[i][A.ncols]
    return LinearSolution(tuple(particular), A.kernel_basis(), True)


def fixed_space_basis(field, n, matrices):
    """Basis of the vectors in field^n that every n x n matrix in
    ``matrices`` fixes: the kernel of the stacked M - I."""
    identity = Matrix.identity(field, n)
    rows = [row for M in matrices for row in (M - identity).rows]
    return Matrix(field, rows or Matrix.zero(field, n, n).rows).kernel_basis()


def kron(*factors):
    """Kronecker product A (x) B (x) ..., blocks A[i][j] * (B (x) ...); zero
    entries are copied, never multiplied, so a zero entry of A fills its
    block at once."""
    out = factors[0]
    for B in factors[1:]:
        zero_block = (out.field.zero,) * B.ncols
        out = Matrix(out.field, [
            [x for a in a_row
             for x in ([a * b if b else b for b in b_row] if a else zero_block)]
            for a_row in out.rows for b_row in B.rows])
    return out


def expand_vector(vec, ext):
    """Flatten a vector over an extension into base-field coordinates,
    blockwise (d coordinates per entry, constant term first)."""
    out = []
    for a in vec:
        out.extend(ext.coords(a))
    return tuple(out)


def contract_vector(coords, ext, length):
    """Inverse of :func:`expand_vector`."""
    d = ext.degree
    if len(coords) != length * d:
        raise ShapeMismatch(f"{len(coords)} coordinates for {length} entries of degree {d}")
    return tuple(ext.from_coords(coords[i * d:(i + 1) * d]) for i in range(length))


def restrict_scalars_matrix(M, ext):
    """The base-field matrix of the map given by M over the extension, acting
    on blockwise-expanded coordinate vectors."""
    if not isinstance(ext, ExtensionField):
        raise ShapeMismatch("restriction of scalars needs an extension field")
    if M.field != ext:
        raise ShapeMismatch("matrix is not over the given extension")
    d = ext.degree
    base = ext.base
    zero_block = [[base.zero] * d for _ in range(d)]
    blocks = [[ext.mult_matrix_rows(M.rows[i][j]) if M.rows[i][j] else zero_block
               for j in range(M.ncols)] for i in range(M.nrows)]
    rows = []
    for i in range(M.nrows):
        for r in range(d):
            row = []
            for j in range(M.ncols):
                row.extend(blocks[i][j][r])
            rows.append(row)
    return Matrix(base, rows)


def span_contains(field, vectors, target):
    """Whether target lies in the span of ``vectors``: the target column of
    [vectors | target] carries no pivot."""
    _, pivots = Matrix.from_cols(field, [*vectors, target]).rref()
    return len(vectors) not in pivots
