import itertools
import random
from fractions import Fraction

import pytest

from galdescent.errors import FieldMismatch, ShapeMismatch, SingularMatrix
from galdescent.fields import GF, QQ, FieldElement
from galdescent.extension import finite_field, make_extension
from galdescent.linalg import (
    Matrix,
    fixed_space_basis,
    kron,
    restrict_scalars_matrix,
    solve_linear,
    span_contains,
)
from galdescent.unipoly import UniPoly
from helpers import expand_vector

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a test extra: the pinned cases still run without it
    given = None


def mat(field, int_rows):
    return Matrix(field, [[field.from_int(n) for n in row] for row in int_rows])


def vec(field, ints):
    return tuple(field.from_int(n) for n in ints)


class TestSolve:
    def test_identity(self):
        A = Matrix.identity(QQ, 2)
        sol = solve_linear(A, vec(QQ, [1, 2]))
        assert sol.consistent
        assert sol.particular == vec(QQ, [1, 2])
        assert sol.kernel == []

    def test_zero_matrix(self):
        A = Matrix.zero(QQ, 2, 2)
        sol = solve_linear(A, vec(QQ, [0, 0]))
        assert sol.consistent
        assert len(sol.kernel) == 2

    def test_singular_over_f3(self):
        F3 = GF(3)
        A = mat(F3, [[1, 1], [1, 1]])
        sol = solve_linear(A, vec(F3, [0, 0]))
        assert sol.consistent
        # oracle: enumerate all 9 vectors over F_3
        kernel_points = {
            (a, b)
            for a in range(3)
            for b in range(3)
            if (a + b) % 3 == 0
        }
        assert len(sol.kernel) == 1
        kv = sol.kernel[0]
        spanned = {tuple((c * x.value) % 3 for x in kv) for c in range(3)}
        assert spanned == kernel_points

    def test_inconsistent(self):
        A = mat(QQ, [[1, 1], [1, 1]])
        sol = solve_linear(A, vec(QQ, [1, 2]))
        assert not sol.consistent

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            solve_linear(Matrix.identity(QQ, 2), vec(QQ, [1, 2, 3]))

    def test_solution_satisfies_system(self):
        rng = random.Random(7)
        F5 = GF(5)
        for _ in range(20):
            A = mat(F5, [[rng.randrange(5) for _ in range(4)] for _ in range(3)])
            x = vec(F5, [rng.randrange(5) for _ in range(4)])
            b = A.apply(x)
            sol = solve_linear(A, b)
            assert sol.consistent
            assert A.apply(sol.particular) == b
            for kv in sol.kernel:
                assert A.apply(kv) == tuple([F5.zero] * 3)


class TestRestrictScalars:
    def test_one_over_qi(self):
        Qi = make_extension(QQ, UniPoly.from_ints(QQ, [1, 0, 1]), irreducible=True)
        M = Matrix(Qi, [[Qi.one]])
        assert restrict_scalars_matrix(M, Qi) == Matrix.identity(QQ, 2)

    def test_i_over_qi(self):
        Qi = make_extension(QQ, UniPoly.from_ints(QQ, [1, 0, 1]), irreducible=True)
        M = Matrix(Qi, [[Qi.generator]])
        assert restrict_scalars_matrix(M, Qi) == mat(QQ, [[0, -1], [1, 0]])

    def test_t_over_gf9(self):
        F9 = finite_field(3, 2)
        M = Matrix(F9, [[F9.generator]])
        assert restrict_scalars_matrix(M, F9) == mat(GF(3), [[0, 2], [1, 0]])

    def test_multiplicative(self):
        rng = random.Random(11)
        F9 = finite_field(3, 2)
        elems = list(F9.elements())
        for _ in range(10):
            M = Matrix(F9, [[rng.choice(elems) for _ in range(2)] for _ in range(2)])
            N = Matrix(F9, [[rng.choice(elems) for _ in range(2)] for _ in range(2)])
            assert restrict_scalars_matrix(M * N, F9) == (
                restrict_scalars_matrix(M, F9) * restrict_scalars_matrix(N, F9))

    def test_compatible_with_vector_expansion(self):
        F9 = finite_field(3, 2)
        rng = random.Random(3)
        elems = list(F9.elements())
        M = Matrix(F9, [[rng.choice(elems) for _ in range(3)] for _ in range(2)])
        v = tuple(rng.choice(elems) for _ in range(3))
        lhs = expand_vector(M.apply(v), F9)
        rhs = restrict_scalars_matrix(M, F9).apply(expand_vector(v, F9))
        assert lhs == rhs

    def test_entries_over_different_denominators(self):
        # the blocks of 1/2 + t/3, 3t/4, 5 and 0 over Q(sqrt 2) are stored
        # over different denominators; the result is the matrix built from
        # the boxed coordinates of each column's images
        Q2 = make_extension(QQ, UniPoly.from_ints(QQ, [-2, 0, 1]), irreducible=True)
        t = Q2.generator
        M = Matrix(Q2, [[Q2.from_int(Fraction(1, 2)) + t * Fraction(1, 3), t * Fraction(3, 4)],
                        [Q2.from_int(5), Q2.zero]])
        restricted = restrict_scalars_matrix(M, Q2)
        cols = [expand_vector(tuple(a * b for a in M.col(j)), Q2)
                for j in range(M.ncols) for b in Q2.power_basis()]
        expected = Matrix.from_cols(QQ, cols)
        assert restricted == expected and hash(restricted) == hash(expected)
        assert restricted._den == 12
        v = (Q2.from_int(Fraction(1, 5)) + t, t * Fraction(-1, 7))
        assert expand_vector(M.apply(v), Q2) == restricted.apply(expand_vector(v, Q2))

    def test_power_basis_independent(self):
        for ext in (finite_field(3, 2), finite_field(2, 3), finite_field(5, 2)):
            cols = []
            t = ext.generator
            a = ext.one
            for _ in range(ext.degree):
                cols.append(list(ext.coords(a)))
                a = a * t
            assert Matrix.from_cols(ext.base, cols).rank() == ext.degree


class TestTrace:
    def test_diagonal_sums(self):
        q = QQ.from_fraction
        assert Matrix(QQ, [[q(1, 2), q(1)], [q(3), q(1, 3)]]).trace() == q(5, 6)
        assert mat(GF(5), [[3, 1], [0, 4]]).trace() == GF(5).from_int(2)
        assert Matrix.zero(QQ, 3, 3).trace() == QQ.zero
        F9 = finite_field(3, 2)
        t = F9.generator
        assert Matrix(F9, [[t, F9.one], [F9.zero, t]]).trace() == t + t

    def test_trace_of_multiplication_is_the_field_trace(self):
        # Tr(a + b*i) = 2a over Q(i)
        Qi = make_extension(QQ, UniPoly.from_ints(QQ, [1, 0, 1]), irreducible=True)
        a = Qi.from_int(Fraction(3, 4)) + Qi.generator * Fraction(-5, 6)
        assert Qi.mult_matrix(a).trace() == QQ.from_fraction(3, 2)

    def test_needs_a_square_matrix(self):
        with pytest.raises(ShapeMismatch):
            mat(QQ, [[1, 2, 3], [4, 5, 6]]).trace()


class TestSpans:
    def test_span_contains(self):
        a = [vec(QQ, [1, 0, 0]), vec(QQ, [0, 1, 0])]
        assert span_contains(QQ, a, vec(QQ, [1, 1, 0]))
        assert not span_contains(QQ, a, vec(QQ, [1, 1, 1]))
        assert span_contains(QQ, a, vec(QQ, [0, 0, 0]))
        assert span_contains(QQ, [], vec(QQ, [0, 0]))
        assert not span_contains(QQ, [], vec(QQ, [0, 1]))
        assert span_contains(QQ, [], ())
        for target in (vec(QQ, [1, 0, 5]), vec(QQ, [1])):
            with pytest.raises(ShapeMismatch):
                span_contains(QQ, [vec(QQ, [1, 0])], target)

    def test_span_contains_matches_solve_linear(self):
        F3 = GF(3)
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randrange(1, 4)
            vectors = [vec(F3, [rng.randrange(3) for _ in range(n)])
                       for _ in range(rng.randrange(4))]
            target = vec(F3, [rng.randrange(3) for _ in range(n)])
            expected = not any(target) or (bool(vectors) and solve_linear(
                Matrix.from_cols(F3, vectors), target).consistent)
            assert span_contains(F3, vectors, target) == expected

    def test_kron_mixed_product(self):
        F3 = GF(3)
        rng = random.Random(5)
        A = mat(F3, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
        B = mat(F3, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
        C = mat(F3, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
        D = mat(F3, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
        assert kron(A, B) * kron(C, D) == kron(A * C, B * D)
        # three factors, one of them rectangular with a zero column, so
        # that whole blocks are zero
        E = mat(F3, [[1, 0, 2], [2, 0, 1]])
        G = mat(F3, [[rng.randrange(3) for _ in range(2)] for _ in range(3)])
        assert kron(A, E, B) * kron(C, G, D) == kron(A * C, E * G, B * D)
        assert kron(A, E, B) == kron(kron(A, E), B) == kron(A, kron(E, B))
        # the layout itself: slots leftmost slowest
        K = kron(A, E, B)
        assert (K.nrows, K.ncols) == (8, 12)
        for i, j, r, s, u, v in itertools.product(
                range(2), range(2), range(2), range(3), range(2), range(2)):
            assert K.rows[(i * 2 + r) * 2 + u][(j * 3 + s) * 2 + v] == (
                A.rows[i][j] * E.rows[r][s] * B.rows[u][v])
        Z = Matrix.zero(F3, 2, 3)
        assert kron(Z, A) == Matrix.zero(F3, 4, 6)
        assert kron(A, Z, B) == Matrix.zero(F3, 8, 12)


class TestEmptyShapes:
    """A matrix with no rows or no columns keeps both of its dimensions."""

    def test_kernel_of_zero_rows(self):
        Z = Matrix.zero(QQ, 0, 3)
        assert (Z.nrows, Z.ncols) == (0, 3)
        assert Z.kernel_basis() == list(Matrix.identity(QQ, 3).rows)
        assert solve_linear(Z, ()).kernel == Z.kernel_basis()

    def test_products(self):
        P = Matrix.zero(QQ, 0, 3) * Matrix.identity(QQ, 3)
        assert (P.nrows, P.ncols) == (0, 3)
        Q = Matrix.identity(QQ, 3) * Matrix.zero(QQ, 3, 0)
        assert (Q.nrows, Q.ncols) == (3, 0)
        assert Q.rows == ((), (), ())
        with pytest.raises(ShapeMismatch, match="0x3 times 2x2"):
            Matrix.zero(QQ, 0, 3) * Matrix.identity(QQ, 2)

    def test_kron_with_a_zero_row_factor(self):
        A = mat(QQ, [[1, 2], [3, 4]])
        for K in (kron(Matrix.zero(QQ, 0, 3), A), kron(A, Matrix.zero(QQ, 0, 3))):
            assert (K.nrows, K.ncols) == (0, 6)
            assert K == Matrix.zero(QQ, 0, 6) != Matrix.zero(QQ, 0, 0)

    def test_from_cols_and_fixed_space(self):
        E = Matrix.from_cols(QQ, [(), ()])
        assert (E.nrows, E.ncols) == (0, 2)
        # no matrices to fix: every vector is fixed
        assert fixed_space_basis(QQ, 2, []) == list(Matrix.identity(QQ, 2).rows)


class TestFieldChecks:
    """Stored scalars carry no field, so every operation that meets two
    fields checks them, zero matrices included."""

    PAIRS = [(GF(3), GF(5)), (QQ, GF(7))]

    @pytest.mark.parametrize("field, other", PAIRS, ids=["gf3-gf5", "qq-gf7"])
    def test_entries_of_another_field(self, field, other):
        for entry in (other.one, other.zero):
            with pytest.raises(FieldMismatch):
                Matrix(field, [[field.one, entry]])
            with pytest.raises(FieldMismatch):
                Matrix.from_cols(field, [[field.one], [entry]])

    @pytest.mark.parametrize("field, other", PAIRS, ids=["gf3-gf5", "qq-gf7"])
    @pytest.mark.parametrize("make", [Matrix.identity, lambda field, n: Matrix.zero(field, n, n)],
                             ids=["identity", "zero"])
    def test_operands_of_another_field(self, field, other, make):
        A, B = make(field, 2), make(other, 2)
        for combine in (lambda: A + B, lambda: A - B, lambda: A * B, lambda: A * other.one,
                        lambda: A.hstack(B), lambda: kron(A, B)):
            with pytest.raises(FieldMismatch):
                combine()


class TestCanonicalForm:
    """Equal matrices over QQ compare and hash equal however they were
    built."""

    @staticmethod
    def assert_equal(M, N):
        assert M == N and hash(M) == hash(N)
        assert M.rows == N.rows

    def test_scale_and_back(self):
        A = mat(QQ, [[1, 2, 0], [0, -3, 4]])
        sixth = QQ.from_fraction(1, 6)
        self.assert_equal((A * sixth) * QQ.from_int(6), A)
        self.assert_equal((A * QQ.from_fraction(2, 3)) * QQ.from_fraction(3, 2), A)

    def test_inverse_times_matrix(self):
        half, third = QQ.from_fraction(1, 2), QQ.from_fraction(-1, 3)
        A = Matrix(QQ, [[half, third, QQ.zero], [QQ.one, half, third],
                        [QQ.zero, QQ.from_int(2), half]])
        self.assert_equal(A.inverse() * A, Matrix.identity(QQ, 3))
        self.assert_equal(A * A.inverse(), Matrix.identity(QQ, 3))

    def test_kron_of_halves_and_twos(self):
        half, two = QQ.from_fraction(1, 2), QQ.from_int(2)
        A = Matrix(QQ, [[half, QQ.zero], [half, half]])
        B = Matrix(QQ, [[two, two]])
        one, zero = QQ.one, QQ.zero
        self.assert_equal(kron(A, B), Matrix(QQ, [[one, one, zero, zero],
                                                  [one, one, one, one]]))

    def test_cancellation_to_zero(self):
        A = Matrix(QQ, [[QQ.from_fraction(1, 3), QQ.from_fraction(5, 6)]])
        B = mat(QQ, [[1, 1]]) * QQ.from_fraction(1, 3) + mat(QQ, [[0, 1]]) * QQ.from_fraction(1, 2)
        self.assert_equal(A - B, Matrix.zero(QQ, 1, 2))
        self.assert_equal(A + -A, Matrix.zero(QQ, 1, 2))


# The dense Matrix that sparse rows replaced, kept as the reference for the
# differential test below: each row is a tuple holding every entry.  It
# differs from that code only in carrying ``ncols`` when there are no rows.

class DenseMatrix:
    def __init__(self, field, rows, ncols=0):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else ncols

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def __add__(self, other):
        self._same_shape(other)
        return DenseMatrix(self.field, [[a + b if b else a for a, b in zip(r1, r2)]
                                        for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def __sub__(self, other):
        self._same_shape(other)
        return DenseMatrix(self.field, [[a - b if b else a for a, b in zip(r1, r2)]
                                        for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def __neg__(self):
        return DenseMatrix(self.field, [[-a for a in r] for r in self.rows], self.ncols)

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeMismatch(f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return DenseMatrix(self.field, [[a * other for a in r] for r in self.rows],
                               self.ncols)
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
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
        return DenseMatrix(self.field, out, other.ncols)

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
        return DenseMatrix(self.field, [r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
                           self.ncols + other.ncols)

    def rref(self):
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
        return DenseMatrix(self.field, rows, self.ncols), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
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
        aug = self.hstack(DenseMatrix.identity(self.field, self.nrows))
        reduced, pivots = aug.rref()
        if len(pivots) != self.nrows or any(p >= self.nrows for p in pivots):
            raise SingularMatrix(f"rank {len(pivots)} < {self.nrows}")
        return DenseMatrix(self.field, [r[self.nrows:] for r in reduced.rows], self.nrows)


def dense_kron(*factors):
    out = factors[0]
    for B in factors[1:]:
        zero_block = (out.field.zero,) * B.ncols
        out = DenseMatrix(out.field, [
            [x for a in a_row
             for x in ([a * b if b else b for b in b_row] if a else zero_block)]
            for a_row in out.rows for b_row in B.rows], out.ncols * B.ncols)
    return out


def assert_same(sparse, dense):
    assert (sparse.nrows, sparse.ncols, sparse.rows) == (dense.nrows, dense.ncols, dense.rows)


def from_dense(field, rows, ncols):
    """``Matrix(field, rows)``, which cannot tell the width of no rows."""
    return Matrix(field, rows) if rows else Matrix.zero(field, 0, ncols)


if given is not None:
    F9 = finite_field(3, 2)
    QI = make_extension(QQ, UniPoly.from_ints(QQ, [1, 0, 1]), irreducible=True)
    # field -> the t of entries (a + b*t) / d: the generator of GF(9) and
    # Q(i), and 0 in QQ and GF(7)
    FIELDS = {QQ: QQ.zero, GF(7): GF(7).zero, F9: F9.generator, QI: QI.generator}
    SIZES = st.integers(0, 6)

    @st.composite
    def elements(draw, field):
        a, b = draw(st.integers(-4, 4)), draw(st.integers(-1, 1))
        return field.from_int(Fraction(a, draw(st.sampled_from([1, 2])))) + b * FIELDS[field]

    @st.composite
    def matrices(draw, field, nrows, ncols):
        """A sparse matrix and its dense reference with the same entries.
        Each entry is nonzero with probability level/4, for a level from 0
        (the zero matrix) to 4 (no zero entry)."""
        level = draw(st.integers(0, 4))
        nonzero = elements(field).filter(bool)
        rows = [[draw(nonzero) if draw(st.integers(0, 3)) < level else field.zero
                 for _ in range(ncols)] for _ in range(nrows)]
        return from_dense(field, rows, ncols), DenseMatrix(field, rows, ncols)

    DIFFERENTIAL = settings(max_examples=200, deadline=None, derandomize=True, database=None)

    @DIFFERENTIAL
    @given(st.sampled_from(list(FIELDS)), SIZES, SIZES, SIZES, st.data())
    def test_arithmetic_matches_dense(field, n, k, m, data):
        (A, dA), (B, dB), (D, dD) = (data.draw(matrices(field, n, k)) for _ in range(3))
        C, dC = data.draw(matrices(field, k, m))
        E, dE = data.draw(matrices(field, *data.draw(st.tuples(SIZES, SIZES))))
        F, dF = data.draw(matrices(field, *data.draw(st.tuples(SIZES, SIZES))))
        G, dG = data.draw(matrices(field, *data.draw(st.tuples(*[st.integers(0, 2)] * 2))))
        scalar = data.draw(elements(field))
        vector = tuple(data.draw(elements(field)) for _ in range(k))
        assert_same(A + B, dA + dB)
        assert_same(A - B, dA - dB)
        assert_same(-A, -dA)
        assert_same(A * scalar, dA * scalar)
        assert_same(A * C, dA * dC)
        assert A.apply(vector) == dA.apply(vector)
        assert_same(A.hstack(D), dA.hstack(dD))
        for j in range(k):
            assert A.col(j) == dA.col(j)
        assert_same(kron(E, F), dense_kron(dE, dF))
        assert_same(kron(E, G, F), dense_kron(dE, dG, dF))
        # canonical storage: no stored zero, whether a zero entry came from
        # the dense constructor or from cancellation
        zero = Matrix.zero(field, n, k)
        assert A - A == zero and hash(A - A) == hash(zero)
        assert (A + B) - B == A and hash((A + B) - B) == hash(A)
        product = from_dense(field, (dA * dC).rows, m)
        assert A * C == product and hash(A * C) == hash(product)

    @DIFFERENTIAL
    @given(st.sampled_from(list(FIELDS)), SIZES, SIZES, st.integers(0, 3), st.data())
    def test_elimination_matches_dense(field, n, k, r, data):
        A, dA = data.draw(matrices(field, n, k))
        # a product through r dimensions: rank at most r, few zero entries
        (L, dL), (R, dR) = data.draw(matrices(field, n, r)), data.draw(matrices(field, r, k))
        for M, dM in ((A, dA), (L * R, dL * dR)):
            reduced, pivots = M.rref()
            d_reduced, d_pivots = dM.rref()
            assert_same(reduced, d_reduced)
            assert pivots == d_pivots
            assert M.rank() == dM.rank()
            assert M.kernel_basis() == dM.kernel_basis()
            try:
                expected = dM.inverse()
            except (ShapeMismatch, SingularMatrix) as error:
                with pytest.raises(type(error)) as raised:
                    M.inverse()
                assert str(raised.value) == str(error)
            else:
                assert_same(M.inverse(), expected)

    # a wider range of scalars: denominators up to 6 over QQ, and values
    # across all of GF(2^61 - 1), where products outgrow a machine word
    P61 = GF(2 ** 61 - 1)
    WIDE = {QQ: st.integers(-4, 4), P61: st.integers(-2 ** 61, 2 ** 61)}

    @st.composite
    def wide_elements(draw, field):
        return field.from_int(Fraction(draw(WIDE[field]), draw(st.sampled_from([1, 2, 3, 5, 6]))))

    @st.composite
    def wide_matrices(draw, field, nrows, ncols):
        """As ``matrices``, with entries from ``wide_elements``."""
        level = draw(st.integers(0, 4))
        nonzero = wide_elements(field).filter(bool)
        rows = [[draw(nonzero) if draw(st.integers(0, 3)) < level else field.zero
                 for _ in range(ncols)] for _ in range(nrows)]
        return from_dense(field, rows, ncols), DenseMatrix(field, rows, ncols)

    @DIFFERENTIAL
    @given(st.sampled_from(list(WIDE)), SIZES, SIZES, SIZES, st.data())
    def test_wide_scalars_match_dense(field, n, k, m, data):
        (A, dA), (B, dB) = (data.draw(wide_matrices(field, n, k)) for _ in range(2))
        C, dC = data.draw(wide_matrices(field, k, m))
        E, dE = data.draw(wide_matrices(field, *data.draw(st.tuples(SIZES, SIZES))))
        scalar = data.draw(wide_elements(field))
        vector = tuple(data.draw(wide_elements(field)) for _ in range(k))
        assert_same(A + B, dA + dB)
        assert_same(A - B, dA - dB)
        assert_same(-A, -dA)
        assert_same(A * scalar, dA * scalar)
        assert_same(A * C, dA * dC)
        assert_same((A + B) * C, (dA + dB) * dC)
        assert A.apply(vector) == dA.apply(vector)
        assert_same(A.hstack(B), dA.hstack(dB))
        assert_same(kron(A, E), dense_kron(dA, dE))
        product = from_dense(field, (dA * dC).rows, m)
        assert A * C == product and hash(A * C) == hash(product)
        for M, dM in ((A, dA), (A * C, dA * dC), (A.hstack(B), dA.hstack(dB))):
            reduced, pivots = M.rref()
            d_reduced, d_pivots = dM.rref()
            assert_same(reduced, d_reduced)
            assert pivots == d_pivots
            assert M.kernel_basis() == dM.kernel_basis()
            try:
                expected = dM.inverse()
            except (ShapeMismatch, SingularMatrix) as error:
                with pytest.raises(type(error)):
                    M.inverse()
            else:
                assert_same(M.inverse(), expected)
                assert M.inverse() * M == Matrix.identity(field, n)

