import itertools
import random

import pytest

from galdescent.errors import ShapeMismatch
from galdescent.fields import GF, QQ
from galdescent.extension import finite_field, make_extension
from galdescent.linalg import (
    Matrix,
    expand_vector,
    kron,
    restrict_scalars_matrix,
    solve_linear,
    span_contains,
)
from galdescent.unipoly import UniPoly


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

    def test_power_basis_independent(self):
        for ext in (finite_field(3, 2), finite_field(2, 3), finite_field(5, 2)):
            cols = []
            t = ext.generator
            a = ext.one
            for _ in range(ext.degree):
                cols.append(list(ext.coords(a)))
                a = a * t
            assert Matrix.from_cols(ext.base, cols).rank() == ext.degree


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
