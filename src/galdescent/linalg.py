"""Exact linear algebra over any of the library's fields, on sparse rows of
raw scalars.

Everything reduces to row echelon computations; matrices are immutable and
field-generic (the same loops run over Q, F_p and extensions).  Vectors are
plain tuples of field elements.  The matrices that descent builds are mostly
zeros, so a ``Matrix`` stores each row as a ``{column: scalar}`` dict of its
nonzero entries, with no zero ever stored, and keeps its shape explicitly.
Sums, products, Kronecker products and row eliminations then cost time in
proportion to the nonzeros.

**Scalars.**  The stored scalars are raw, with the convention of the
Groebner kernel (``fields.int_modulus``): over F_p an int in [1, p); over Q
an int numerator over one positive denominator ``_den`` per matrix; over an
extension field the ``FieldElement`` itself, with ``_den`` 1.  An element
of an extension of Q holds its coordinates in the same form, int numerators
over one denominator, so a column of its coordinates is its numerators
scaled to ``_den``.  Products and
Kronecker products accumulate ints and reduce once per result: mod p over
F_p, and over Q the denominator is the product of the two and the content
is divided out once.  Elimination (``rref`` and what rests on it) runs on
the stored scalars too; over Q it is fraction-free, and only the reduced
rows are divided by their pivots.

**Boundary.**  The constructor, ``from_cols`` and ``map_entries`` take
field elements and unbox them; ``rows``, ``col``, ``trace``, ``apply``,
``kernel_basis`` and ``solve_linear`` box them back (``Fraction(n, _den)``
over Q).  Dense rows are the public form.  A matrix of coordinates over the
base of an extension is built from the elements' raw values, with no
boxing: over Q an extension value is already int numerators over one
denominator (``ExtensionField.coords_matrix``, behind the matrix of an
automorphism, ``ExtensionField.mult_matrix`` and
``restrict_scalars_matrix``).

**Field check.**  A raw int carries no field, so the field is checked
where scalars meet: an entry of another field raises ``FieldMismatch`` when
it is unboxed, and ``+``, ``-``, ``*``, ``hstack`` and ``kron`` check that
their operands share a field once per call.

**Canonical form.**  Over Q the gcd of ``_den`` and every numerator is 1,
and the zero matrix has ``_den`` 1.  So equal matrices store equal rows
and denominators however they were built, and compare and hash equal.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import FieldMismatch, ShapeMismatch, SingularMatrix
from .extension import ExtensionField
from .fields import FieldElement, int_modulus


class Matrix:
    """An nrows x ncols matrix; ``Matrix(field, rows)`` takes dense rows."""

    __slots__ = ("field", "nrows", "ncols", "_rows", "_den")

    def __init__(self, field, rows):
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ShapeMismatch("ragged rows")
        self._set(field, len(rows), ncols, *_unboxed(field, map(enumerate, rows)))

    def _set(self, field, nrows, ncols, rows, den):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._rows = tuple(rows)
        self._den = den

    @classmethod
    def _sparse(cls, field, nrows, ncols, rows, den=1):
        """The matrix with the given sparse rows of stored scalars over
        ``den``: dicts holding no zero, in canonical form."""
        matrix = cls.__new__(cls)
        matrix._set(field, nrows, ncols, rows, den)
        return matrix

    @property
    def rows(self):
        """The entries as dense row tuples."""
        zero, box = self.field.zero, self._boxer()
        return tuple(tuple(box(row[j]) if j in row else zero for j in range(self.ncols))
                     for row in self._rows)

    def _boxer(self):
        """The map from a stored scalar to its field element."""
        field, p = self.field, int_modulus(self.field)
        if p is None:
            return lambda a: a
        if p:
            return lambda a: FieldElement(field, a)
        den = self._den
        return lambda a: FieldElement(field, Fraction(a, den))

    @classmethod
    def identity(cls, field, n):
        one = field.one if int_modulus(field) is None else 1
        return cls._sparse(field, n, n, [{i: one} for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls._sparse(field, nrows, ncols, [{} for _ in range(nrows)])

    @classmethod
    def from_cols(cls, field, cols):
        if any(len(col) != len(cols[0]) for col in cols):
            raise ShapeMismatch("ragged columns")
        return cls._sparse(field, len(cols[0]) if cols else 0, len(cols),
                           *_unboxed(field, map(enumerate, zip(*cols))))

    def col(self, j):
        j = range(self.ncols)[j]
        zero, box = self.field.zero, self._boxer()
        return tuple(box(row[j]) if j in row else zero for row in self._rows)

    def is_zero(self):
        return not any(self._rows)

    def _check_field(self, other):
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch(f"{other.field} vs {self.field}")

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        """self + sign * other for a sign of 1 or -1; an entry is reduced
        only where the two operands meet."""
        self._check_field(other)
        self._same_shape(other)
        p = int_modulus(self.field)
        # both operands over the lcm of their denominators
        den = lcm(self._den, other._den)
        s1, s2 = den // self._den, sign * (den // other._den)
        out = []
        for r1, r2 in zip(self._rows, other._rows):
            row = dict(r1) if s1 == 1 else {j: a * s1 for j, a in r1.items()}
            for j, b in r2.items():
                if s2 == -1:
                    b = -b
                elif s2 != 1:
                    b *= s2
                a = row.get(j)
                c = b if a is None else a + b
                if p:
                    c %= p
                if c:
                    row[j] = c
                else:
                    del row[j]
            out.append(row)
        return _lowest(self.field, self.nrows, self.ncols, out, den)

    def __neg__(self):
        return Matrix.zero(self.field, self.nrows, self.ncols) - self

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeMismatch(f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __mul__(self, other):
        self._check_field(other)
        if isinstance(other, FieldElement):
            return self._scale(other)
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        return self._times(other)

    def _scale(self, c):
        """The matrix times the scalar ``c``."""
        if not c:
            return Matrix.zero(self.field, self.nrows, self.ncols)
        p, den = int_modulus(self.field), self._den
        if p:
            c = c.value
            rows = [{j: a * c % p for j, a in row.items()} for row in self._rows]
        else:
            if p == 0:
                c, den = c.value.numerator, den * c.value.denominator
            rows = [{j: a * c for j, a in row.items()} for row in self._rows]
        return _lowest(self.field, self.nrows, self.ncols, rows, den)

    def _times(self, other):
        """The product, shapes and fields already checked."""
        # row i of the product is sum_k a_ik * (row k of other), over the
        # nonzero a_ik and the nonzero entries of row k only; each entry
        # is reduced once, at the end
        p = int_modulus(self.field)
        right = other._rows
        out = []
        for row in self._rows:
            if len(row) == 1 and p is not None:
                # a multiple of one row: products of nonzero ints, nonzero
                # mod p; a row times 1 is shared, as rows are never mutated
                (k, a), = row.items()
                if a == 1:
                    out.append(right[k])
                elif p:
                    out.append({j: a * b % p for j, b in right[k].items()})
                else:
                    out.append({j: a * b for j, b in right[k].items()})
                continue
            acc = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    c = acc.get(j)
                    acc[j] = a * b if c is None else c + a * b
            if p:
                out.append({j: c for j, x in acc.items() if (c := x % p)})
            else:
                out.append({j: c for j, c in acc.items() if c})
        return _lowest(self.field, self.nrows, other.ncols, out, self._den * other._den)

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise ShapeMismatch(f"vector length {len(vec)} vs {self.ncols} columns")
        return self._times(Matrix.from_cols(self.field, [vec])).col(0)

    def hstack(self, other):
        self._check_field(other)
        if self.nrows != other.nrows:
            raise ShapeMismatch("row counts differ")
        # over the lcm of the denominators the content stays 1: each prime's
        # full power in the lcm divides one operand's denominator, and that
        # operand has a numerator prime to it
        den = lcm(self._den, other._den)
        s1, s2 = den // self._den, den // other._den
        shift = self.ncols
        return Matrix._sparse(
            self.field, self.nrows, shift + other.ncols,
            [{**(r1 if s1 == 1 else {j: a * s1 for j, a in r1.items()}),
              **{j + shift: b if s2 == 1 else b * s2 for j, b in r2.items()}}
             for r1, r2 in zip(self._rows, other._rows)], den)

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
        return Matrix._sparse(self.field, self.nrows, self.ncols, rows, self._den)

    def map_entries(self, func):
        """Apply ``func``, which sends zero to zero (a field automorphism,
        say), to every entry."""
        box = self._boxer()
        rows = [[(j, func(box(a))) for j, a in row.items()] for row in self._rows]
        return Matrix._sparse(self.field, self.nrows, self.ncols, *_unboxed(self.field, rows))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self._den == other._den and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self._den,
                     tuple(frozenset(row.items()) for row in self._rows)))

    def trace(self):
        """The sum of the diagonal entries of a square matrix."""
        if self.nrows != self.ncols:
            raise ShapeMismatch(f"trace of a {self.nrows}x{self.ncols} matrix")
        diagonal = [row[i] for i, row in enumerate(self._rows) if i in row]
        p = int_modulus(self.field)
        if p is None:
            return sum(diagonal, self.field.zero)
        total = sum(diagonal)
        return self._boxer()(total % p if p else total)

    def rref(self):
        """Reduced row echelon form: returns (matrix, pivot column tuple).

        Columns are cleared left to right.  ``where`` holds, for each column
        not yet cleared, the rows with a nonzero entry there, so a pivot is
        found and its column cleared without visiting the other rows.  A row
        that is not yet a pivot row is zero in every cleared column, so
        fill-in only ever lands right of the current column.

        Over F_p and extensions a pivot row is scaled to pivot 1 and the
        others lose a multiple of it.  Over Q elimination is fraction-free:
        a row matters only up to a scalar until the end, so the numerators
        are eliminated as they are, a row that loses f times a pivot row
        with pivot v is first scaled by v (both divided by their gcd), and
        its content is divided out.  Each pivot row is divided by its pivot
        at the end, which gives the same, unique, reduced form."""
        p = int_modulus(self.field)
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
            lead = min((i for i in hits if i not in done), default=None)
            if lead is None:
                continue
            pivot = rows[lead][col]
            if p == 0:
                scale = pivot
            else:
                inv = pow(pivot, -1, p) if p else pivot.inverse()
                rows[lead] = {j: a * inv % p if p else a * inv for j, a in rows[lead].items()}
                scale = 1
            # only the pivot row's nonzero entries change another row
            entries = [(j, b) for j, b in rows[lead].items() if j != col]
            for i in hits:
                if i == lead:
                    continue
                row = rows[i]
                factor = row.pop(col)
                if scale != 1:
                    g = gcd(scale, factor)
                    factor //= g
                    s = scale // g
                    if s != 1:
                        for j in row:
                            row[j] *= s
                for j, b in entries:
                    a = row.get(j)
                    if a is None:
                        row[j] = (-factor * b) % p if p else -(factor * b)
                        where[j].add(i)
                        continue
                    a = (a - factor * b) % p if p else a - factor * b
                    if a:
                        row[j] = a
                    else:
                        del row[j]
                        where[j].discard(i)
                if p == 0 and row:
                    g = gcd(*row.values())
                    if g != 1:
                        for j in row:
                            row[j] //= g
            pivot_rows.append(lead)
            done.add(lead)
            pivots.append(col)
            if len(pivots) == self.nrows:
                break
        # every row that holds no pivot has been cleared to zero
        out = [rows[i] for i in pivot_rows]
        if p == 0:
            out = [{j: Fraction(a, row[c]) for j, a in row.items()}
                   for c, row in zip(pivots, out)]
        out += [{} for _ in range(self.nrows - len(pivots))]
        return (Matrix._sparse(self.field, self.nrows, self.ncols, *_stored(p, out)),
                tuple(pivots))

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Basis vectors of the right kernel, one per free column."""
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        zero, one, box = self.field.zero, self.field.one, reduced._boxer()
        basis = {f: [zero] * self.ncols for f in range(self.ncols) if f not in pivot_set}
        for f, vec in basis.items():
            vec[f] = one
        # a pivot row is zero at the other pivots, so its other entries sit
        # in free columns
        for p, row in zip(pivots, reduced._rows):
            for f, a in row.items():
                if f != p:
                    basis[f][p] = -box(a)
        return [tuple(vec) for vec in basis.values()]

    def inverse(self):
        if self.nrows != self.ncols:
            raise ShapeMismatch("inverse of a non-square matrix")
        n = self.nrows
        aug = self.hstack(Matrix.identity(self.field, n))
        reduced, pivots = aug.rref()
        if len(pivots) != n or any(p >= n for p in pivots):
            raise SingularMatrix(f"rank {len(pivots)} < {n}")
        return _lowest(self.field, n, n, [{j - n: a for j, a in row.items() if j >= n}
                                          for row in reduced._rows], reduced._den)

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def __repr__(self):
        body = "; ".join("[" + ", ".join(repr(a) for a in r) + "]" for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def _unboxed(field, rows):
    """(stored rows, den) for rows given as (column, field element) pairs:
    zeros are dropped, and an entry that is not an element of ``field``
    raises FieldMismatch."""
    p = int_modulus(field)
    stored = []
    for row in rows:
        kept = {}
        for j, a in row:
            if not isinstance(a, FieldElement) or (a.field is not field and a.field != field):
                raise FieldMismatch(f"matrix entry {a!r} is not in {field}")
            if a:
                kept[j] = a if p is None else a.value
        stored.append(kept)
    return _stored(p, stored)


def _stored(p, rows):
    """(stored rows, den) for sparse rows of nonzero exact values: ints in
    [1, p), ``Fraction``s over Q (p = 0), elements over an extension.  Over
    Q the numerators are taken over the lcm of the denominators, with
    content 1: each prime's full power in the lcm divides some value's
    denominator, and that value's numerator is prime to it."""
    if p != 0:
        return rows, 1
    den = lcm(*(a.denominator for row in rows for a in row.values()))
    return [{j: a.numerator * (den // a.denominator) for j, a in row.items()}
            for row in rows], den


def _lowest(field, nrows, ncols, rows, den=1):
    """The matrix with sparse rows of stored scalars over ``den``, holding
    no zero, in lowest terms: over Q the content, the gcd of ``den`` and
    the numerators, is divided out."""
    if den != 1:
        g = den
        for row in rows:
            g = gcd(g, *row.values())
            if g == 1:
                break
        else:
            rows = [{j: a // g for j, a in row.items()} for row in rows]
            den //= g
    return Matrix._sparse(field, nrows, ncols, rows, den)


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
    zero, box = A.field.zero, reduced._boxer()
    particular = [zero] * A.ncols
    for p, row in zip(pivots, reduced._rows):
        if A.ncols in row:
            particular[p] = box(row[A.ncols])
    return LinearSolution(tuple(particular), A.kernel_basis(), True)


def fixed_space_basis(field, n, matrices):
    """Basis of the vectors in field^n that every n x n matrix in
    ``matrices`` fixes: the kernel of the stacked M - I."""
    identity = Matrix.identity(field, n)
    # over Q the stacked rows are the numerators of each M - I: scaling a
    # row by its matrix's denominator keeps the kernel
    rows = [row for M in matrices for row in (M - identity)._rows]
    return Matrix._sparse(field, len(rows), n, rows).kernel_basis()


def kron(*factors):
    """Kronecker product A (x) B (x) ..., blocks A[i][j] * (B (x) ...); only
    products of two nonzero entries are formed."""
    out = factors[0]
    for B in factors[1:]:
        out._check_field(B)
        p, width = int_modulus(B.field), B.ncols
        if p:
            rows = [{j * width + l: a * b % p for j, a in a_row.items() for l, b in b_row.items()}
                    for a_row in out._rows for b_row in B._rows]
        else:
            rows = [{j * width + l: a * b for j, a in a_row.items() for l, b in b_row.items()}
                    for a_row in out._rows for b_row in B._rows]
        out = _lowest(out.field, out.nrows * B.nrows, out.ncols * width, rows,
                      out._den * B._den)
    return out


def contract_vector(coords, ext, length):
    """The vector over an extension whose entries have the given base-field
    coordinates, blockwise (d coordinates per entry, constant term first)."""
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
    # block (i, j) is the matrix of multiplication by M[i][j], its stored
    # scalars taken over the lcm of the blocks' denominators
    d = ext.degree
    blocks = [(i, j, ext.mult_matrix(a)) for i, m_row in enumerate(M._rows)
              for j, a in m_row.items()]
    den = lcm(*(block._den for _, _, block in blocks))
    rows = [{} for _ in range(M.nrows * d)]
    for i, j, block in blocks:
        scale = den // block._den
        for r, block_row in enumerate(block._rows):
            rows[i * d + r].update((j * d + s, c * scale) for s, c in block_row.items())
    return _lowest(ext.base, M.nrows * d, M.ncols * d, rows, den)


def span_contains(field, vectors, target):
    """Whether target lies in the span of ``vectors``: the target column of
    [vectors | target] carries no pivot."""
    _, pivots = Matrix.from_cols(field, [*vectors, target]).rref()
    return len(vectors) not in pivots
