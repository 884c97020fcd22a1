"""Exact linear algebra over any of the library's fields, on sparse rows.

Everything reduces to row echelon computations; matrices are immutable and
field-generic (the same code runs over Q, F_p and extensions).  Vectors are
plain tuples of field elements.  The matrices that descent builds are mostly
zeros, so a ``Matrix`` stores each row as a ``{column: entry}`` dict of its
nonzero entries, with no zero ever stored, and keeps its shape explicitly.
Sums, products, Kronecker products and row eliminations then cost time in
proportion to the nonzeros.  Dense rows are the public form: the constructor
takes them, and ``Matrix.rows`` gives them back as tuples.
"""

from .errors import ShapeMismatch, SingularMatrix
from .extension import ExtensionField
from .fields import FieldElement


class Matrix:
    """An nrows x ncols matrix; ``Matrix(field, rows)`` takes dense rows."""

    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field, rows):
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ShapeMismatch("ragged rows")
        self._set(field, len(rows), ncols, [{j: a for j, a in enumerate(r) if a} for r in rows])

    def _set(self, field, nrows, ncols, rows):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._rows = tuple(rows)

    @classmethod
    def _sparse(cls, field, nrows, ncols, rows):
        """The matrix with the given sparse rows: dicts holding no zero."""
        matrix = cls.__new__(cls)
        matrix._set(field, nrows, ncols, rows)
        return matrix

    @property
    def rows(self):
        """The entries as dense row tuples."""
        zero = self.field.zero
        return tuple(tuple(row.get(j, zero) for j in range(self.ncols)) for row in self._rows)

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls._sparse(field, n, n, [{i: one} for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls._sparse(field, nrows, ncols, [{} for _ in range(nrows)])

    @classmethod
    def from_cols(cls, field, cols):
        if any(len(col) != len(cols[0]) for col in cols):
            raise ShapeMismatch("ragged columns")
        rows = [{} for _ in range(len(cols[0]) if cols else 0)]
        for j, col in enumerate(cols):
            for row, a in zip(rows, col):
                if a:
                    row[j] = a
        return cls._sparse(field, len(rows), len(cols), rows)

    def col(self, j):
        j = range(self.ncols)[j]
        zero = self.field.zero
        return tuple(row.get(j, zero) for row in self._rows)

    def is_zero(self):
        return not any(self._rows)

    def __add__(self, other):
        self._same_shape(other)
        out = []
        for r1, r2 in zip(self._rows, other._rows):
            row = dict(r1)
            for j, b in r2.items():
                a = row.get(j)
                if a is None:
                    row[j] = b
                else:
                    c = a + b
                    if c:
                        row[j] = c
                    else:
                        del row[j]
            out.append(row)
        return Matrix._sparse(self.field, self.nrows, self.ncols, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Matrix._sparse(self.field, self.nrows, self.ncols,
                              [{j: -a for j, a in row.items()} for row in self._rows])

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeMismatch(f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            if not other:
                return Matrix.zero(self.field, self.nrows, self.ncols)
            return Matrix._sparse(self.field, self.nrows, self.ncols,
                                  [{j: a * other for j, a in row.items()} for row in self._rows])
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        # row i of the product is sum_k a_ik * (row k of other), over the
        # nonzero a_ik and the nonzero entries of row k only
        right = other._rows
        out = []
        for row in self._rows:
            acc = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    c = acc.get(j)
                    acc[j] = a * b if c is None else c + a * b
            out.append({j: c for j, c in acc.items() if c})
        return Matrix._sparse(self.field, self.nrows, other.ncols, out)

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise ShapeMismatch(f"vector length {len(vec)} vs {self.ncols} columns")
        zero = self.field.zero
        out = []
        for row in self._rows:
            acc = zero
            for j, a in row.items():
                b = vec[j]
                if b:
                    acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ShapeMismatch("row counts differ")
        shift = self.ncols
        return Matrix._sparse(
            self.field, self.nrows, shift + other.ncols,
            [{**r1, **{j + shift: b for j, b in r2.items()}}
             for r1, r2 in zip(self._rows, other._rows)])

    def permute(self, row_sources=None, col_sources=None):
        """Move entries: row i of the result is row ``row_sources[i]`` and
        column j is column ``col_sources[j]``; each order is a permutation
        (``None`` keeps the current one)."""
        rows = self._rows
        if row_sources is not None:
            rows = [rows[k] for k in row_sources]
        if col_sources is not None:
            target = [0] * self.ncols
            for j, k in enumerate(col_sources):
                target[k] = j
            rows = [{target[k]: a for k, a in row.items()} for row in rows]
        return Matrix._sparse(self.field, self.nrows, self.ncols, rows)

    def map_entries(self, func):
        """Apply ``func``, which sends zero to zero (a field automorphism,
        say), to every entry."""
        return Matrix._sparse(self.field, self.nrows, self.ncols,
                              [{j: func(a) for j, a in row.items()} for row in self._rows])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols,
                     tuple(frozenset(row.items()) for row in self._rows)))

    def rref(self):
        """Reduced row echelon form: returns (matrix, pivot column tuple).

        Columns are cleared left to right.  ``where`` holds, for each column
        not yet cleared, the rows with a nonzero entry there, so a pivot is
        found and its column cleared without visiting the other rows.  A row
        that is not yet a pivot row is zero in every cleared column, so fill-in
        only ever lands right of the current column."""
        rows = [dict(r) for r in self._rows]
        where = {}
        for i, row in enumerate(rows):
            for j in row:
                where.setdefault(j, set()).add(i)
        pivot_rows = []
        pivots = []
        done = set()
        for col in range(self.ncols):
            hits = where.pop(col, ())
            p = min((i for i in hits if i not in done), default=None)
            if p is None:
                continue
            inv = rows[p][col].inverse()
            rows[p] = {j: a * inv for j, a in rows[p].items()}
            # only the pivot row's nonzero entries change another row
            entries = [(j, b) for j, b in rows[p].items() if j != col]
            for i in hits:
                if i == p:
                    continue
                row = rows[i]
                factor = row.pop(col)
                for j, b in entries:
                    a = row.get(j)
                    if a is None:
                        row[j] = -(factor * b)
                        where[j].add(i)
                        continue
                    a = a - factor * b
                    if a:
                        row[j] = a
                    else:
                        del row[j]
                        where[j].discard(i)
            pivot_rows.append(p)
            done.add(p)
            pivots.append(col)
            if len(pivots) == self.nrows:
                break
        # every row that holds no pivot has been cleared to zero
        out = [rows[p] for p in pivot_rows] + [{} for _ in range(self.nrows - len(pivots))]
        return Matrix._sparse(self.field, self.nrows, self.ncols, out), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis vectors of the right kernel, one per free column."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        zero, one = self.field.zero, self.field.one
        basis = {f: [zero] * self.ncols for f in range(self.ncols) if f not in pivot_set}
        for f, vec in basis.items():
            vec[f] = one
        # a pivot row is zero at the other pivots, so its other entries sit
        # in free columns
        for p, row in zip(pivots, reduced._rows):
            for f, a in row.items():
                if f != p:
                    basis[f][p] = -a
        return [tuple(vec) for vec in basis.values()]

    def inverse(self):
        if self.nrows != self.ncols:
            raise ShapeMismatch("inverse of a non-square matrix")
        n = self.nrows
        aug = self.hstack(Matrix.identity(self.field, n))
        reduced, pivots = aug.rref()
        if len(pivots) != n or any(p >= n for p in pivots):
            raise SingularMatrix(f"rank {len(pivots)} < {n}")
        return Matrix._sparse(self.field, n, n, [{j - n: a for j, a in row.items() if j >= n}
                                                 for row in reduced._rows])

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
    for p, row in zip(pivots, reduced._rows):
        particular[p] = row.get(A.ncols, zero)
    return LinearSolution(tuple(particular), A.kernel_basis(), True)


def fixed_space_basis(field, n, matrices):
    """Basis of the vectors in field^n that every n x n matrix in
    ``matrices`` fixes: the kernel of the stacked M - I."""
    identity = Matrix.identity(field, n)
    rows = [row for M in matrices for row in (M - identity)._rows]
    return Matrix._sparse(field, len(rows), n, rows).kernel_basis()


def kron(*factors):
    """Kronecker product A (x) B (x) ..., blocks A[i][j] * (B (x) ...); only
    products of two nonzero entries are formed, and those are nonzero."""
    out = factors[0]
    for B in factors[1:]:
        width = B.ncols
        out = Matrix._sparse(out.field, out.nrows * B.nrows, out.ncols * width, [
            {j * width + l: a * b for j, a in a_row.items() for l, b in b_row.items()}
            for a_row in out._rows for b_row in B._rows])
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
    rows = [{} for _ in range(M.nrows * d)]
    for i, m_row in enumerate(M._rows):
        for j, a in m_row.items():
            for r, block_row in enumerate(ext.mult_matrix_rows(a)):
                row = rows[i * d + r]
                for s, c in enumerate(block_row):
                    if c:
                        row[j * d + s] = c
    return Matrix._sparse(ext.base, M.nrows * d, M.ncols * d, rows)


def span_contains(field, vectors, target):
    """Whether target lies in the span of ``vectors``: the target column of
    [vectors | target] carries no pivot."""
    _, pivots = Matrix.from_cols(field, [*vectors, target]).rref()
    return len(vectors) not in pivots
