import itertools
import math
import random

import pytest

from galdescent.errors import (
    BasisNotIndependent,
    BasisNotSpanning,
    CocycleFailed,
    NotBilinearCompatible,
    NotExact,
    ShapeMismatch,
    SingularMatrix,
    UnsupportedBase,
    ZeroTarget,
)
from galdescent.extension import finite_field, make_extension
from galdescent.fields import GF, QQ
from galdescent.flat import (
    AlgebraMap,
    AmitsurComplex,
    ExactnessReport,
    FiniteAlgebra,
    FreeModuleData,
    amitsur_complex,
    canonical_datum_matrix,
    check_cocycle,
    check_exactness,
    check_faithfully_flat,
    reconstruct_module,
    twist_datum,
)
from galdescent.galois import cyclotomic_field, cyclotomic_group
from galdescent.linalg import Matrix, kron
from galdescent.unipoly import UniPoly
from algebra_reference import VectorAlgebra
from helpers import dense_constants

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a test extra: the pinned complexes still run without it
    given = None


def qi_algebra():
    Qi = make_extension(QQ, UniPoly.from_ints(QQ, [1, 0, 1]), irreducible=True)
    return Qi, FiniteAlgebra.from_extension(Qi)


def qq_squared():
    base = FiniteAlgebra.base(QQ)
    return VectorAlgebra.product([base, base])


class TestFiniteAlgebra:
    def test_extension_as_algebra(self):
        Qi, B = qi_algebra()
        assert B.dim == 2
        i = (QQ.zero, QQ.one)
        assert B.mul(i, i) == (QQ.from_int(-1), QQ.zero)

    def test_product(self):
        P = qq_squared()
        e1 = (QQ.one, QQ.zero)
        e2 = (QQ.zero, QQ.one)
        assert P.mul(e1, e2) == (QQ.zero, QQ.zero)
        assert P.mul(e1, e1) == e1
        assert P.unit == (QQ.one, QQ.one)

    def test_operands_of_the_wrong_length(self):
        # neither truncated nor padded: (1,) * (1, 1) is not (1, 0)
        P = qq_squared()
        one = QQ.one
        for operands in [((one,), (one, one)), ((one, one), (one, one, one))]:
            for operation in (P.mul, P.add):
                with pytest.raises(ShapeMismatch, match=r"^vector of length [13] in an "
                                                        r"algebra of dimension 2$"):
                    operation(*operands)
        with pytest.raises(ShapeMismatch):
            P.mult_matrix((one,))

    def test_product_is_not_a_tensor(self):
        P = qq_squared()
        with pytest.raises(ShapeMismatch, match="not a tensor algebra"):
            P.embed_left((QQ.one,))
        with pytest.raises(ShapeMismatch, match="not a tensor algebra"):
            P.embed_right((QQ.one,))

    def test_tensor(self):
        Qi, B = qi_algebra()
        T = VectorAlgebra.tensor(B, B)
        assert T.dim == 4
        i_left = T.embed_left((QQ.zero, QQ.one))
        i_right = T.embed_right((QQ.zero, QQ.one))
        # (i (x) 1)(1 (x) i) = i (x) i; squaring gives (-1) (x) (-1) = 1 (x) 1
        prod = T.mul(i_left, i_right)
        assert T.mul(prod, prod) == T.unit

    def test_sparse_constants_round_trip(self):
        Qi, B = qi_algebra()
        T = FiniteAlgebra.tensor(B, qq_squared())
        zero, one = QQ.zero, QQ.one
        # (i (x) e1)^2 = -1 (x) e1: column 2 * 4 + 2 of the multiplication map
        assert (T.mu.nrows, T.mu.ncols) == (4, 16)
        assert T.mu.col(10) == (QQ.from_int(-1), zero, zero, zero)
        assert dense_constants(T)[2][2] == T.mu.col(10)
        assert FiniteAlgebra(QQ, dense_constants(T), T.unit).mu == T.mu
        assert T.unit == (one, one, zero, zero)


def constants(field, table, dim):
    """Dense structure constants from {(i, j): {l: c}} given for i <= j."""
    zero = field.zero
    sc = [[(zero,) * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), coords in table.items():
        vec = tuple(field.from_int(coords.get(l, 0)) for l in range(dim))
        sc[i][j] = sc[j][i] = vec
    return sc


def unital(field, table, dim):
    """Constants with e_0 the unit and the products of the other basis
    elements from ``table``."""
    return constants(field, {**{(0, j): {j: 1} for j in range(dim)}, **table}, dim)


def as_vector(field, coords):
    return tuple(field.from_int(c) for c in coords)


class TestVerify:
    """Each law ``FiniteAlgebra.verify`` proves, broken alone."""

    def test_unit_law(self):
        # QQ x QQ with e_0 claimed as the unit
        sc = constants(QQ, {(0, 0): {0: 1}, (1, 1): {1: 1}}, 2)
        with pytest.raises(ShapeMismatch, match=r"^unit law fails on basis element 1$"):
            FiniteAlgebra(QQ, sc, as_vector(QQ, (1, 0)))

    def test_commutativity(self):
        # 2 x 2 matrices on E11, E12, E21, E22: associative and unital
        zero = (QQ.zero,) * 4
        e = [as_vector(QQ, [int(l == k) for l in range(4)]) for k in range(4)]
        sc = [[zero] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                if i % 2 == j // 2:
                    sc[i][j] = e[2 * (i // 2) + j % 2]
        with pytest.raises(ShapeMismatch, match=r"^product not commutative at \(0, 1\)$"):
            FiniteAlgebra(QQ, sc, as_vector(QQ, (1, 0, 0, 1)))

    def test_associativity(self):
        # basis 1, a, b with a a = b, a b = 0, b b = 1: (a a) b = 1, a (a b) = 0
        sc = unital(QQ, {(1, 1): {2: 1}, (2, 2): {0: 1}}, 3)
        with pytest.raises(ShapeMismatch, match=r"^product not associative$"):
            FiniteAlgebra(QQ, sc, as_vector(QQ, (1, 0, 0)))

    def test_failure_seen_by_a_later_generator(self):
        # k x (the algebra above), basis e, 1', a, b and unit e + 1'; the
        # greedy generating set is {e, a}, and the idempotent e lies in the
        # nucleus, so only a exposes the failure
        table = {(0, 0): {0: 1}, (1, 1): {1: 1}, (1, 2): {2: 1}, (1, 3): {3: 1},
                 (2, 2): {3: 1}, (3, 3): {1: 1}}
        sc = constants(QQ, table, 4)
        with pytest.raises(ShapeMismatch, match=r"^product not associative$"):
            FiniteAlgebra(QQ, sc, as_vector(QQ, (1, 1, 0, 0)))

    @pytest.mark.parametrize("m", [5, 7, 11])
    def test_multiplies_on_generating_set(self, m, monkeypatch):
        K, _ = cyclotomic_group(m)
        B = FiniteAlgebra.from_extension(K)
        T = FiniteAlgebra.tensor(B, B)
        n = T.dim
        basis = Matrix.identity(QQ, n).rows
        # S = {1 (x) u, t (x) 1}, basis elements 1 and dim B
        assert T._generators() == [T.mult_matrix(basis[1]), T.mult_matrix(basis[B.dim])]
        shapes = []
        multiply = Matrix.__mul__

        def counting(self, other):
            shapes.append((self.nrows, self.ncols, other.ncols))
            return multiply(self, other)

        monkeypatch.setattr(Matrix, "__mul__", counting)
        T.verify()
        # two products for the unit law, one per member s of S for its
        # multiplication matrix L_s, then mu (L_s (x) I) and L_s mu for each:
        # 2 + 3 |S| products in all
        assert shapes == ([(n, n * n, n)] * 4
                          + [(n, n * n, n * n), (n, n, n * n)] * 2)


class TestShape:
    """Structure constants of the wrong shape fail before ``verify`` runs."""

    def test_short_product(self):
        one, zero = QQ.one, QQ.zero
        with pytest.raises(ShapeMismatch, match=r"^product of basis elements 0 and 0 "
                                                r"has length 1, expected 2$"):
            FiniteAlgebra(QQ, [[(one,), (zero, one)], [(zero, one), (one, zero)]], (one, zero))

    def test_long_product(self):
        one, zero = QQ.one, QQ.zero
        with pytest.raises(ShapeMismatch, match=r"^product of basis elements 1 and 1 "
                                                r"has length 3, expected 2$"):
            FiniteAlgebra(QQ, [[(one, zero), (zero, one)], [(zero, one), (one, zero, zero)]],
                          (one, zero))

    def test_short_row(self):
        one, zero = QQ.one, QQ.zero
        with pytest.raises(ShapeMismatch, match=r"^structure constants row 1 has 1 products, "
                                                r"expected 2$"):
            FiniteAlgebra(QQ, [[(one, zero), (zero, one)], [(zero, one)]], (one, zero))


def position(dims, idx):
    """Index of the basis tuple ``idx`` in a tensor product of spaces of the
    given dimensions, leftmost slot slowest."""
    out = 0
    for d, i in zip(dims, idx):
        out = out * d + i
    return out


def pure_tensor(field, factors):
    """Coordinates of v_1 (x) ... (x) v_r from the factors' coordinates."""
    dims = [len(v) for v in factors]
    out = [field.zero] * math.prod(dims)
    for idx in itertools.product(*(range(d) for d in dims)):
        c = field.one
        for v, i in zip(factors, idx):
            c = c * v[i]
        out[position(dims, idx)] = c
    return tuple(out)


class TestTensorLayout:
    """The realizations checked against coordinates built here, by hand, from
    basis tuples."""

    def algebras(self):
        Qi, B = qi_algebra()
        return [FiniteAlgebra.from_extension(finite_field(3, 2)),
                FiniteAlgebra.product([FiniteAlgebra.base(QQ), B])]

    def test_differential_on_pure_tensors(self):
        for B in self.algebras():
            field = B.field
            basis = Matrix.identity(field, B.dim).rows
            complex_ = amitsur_complex(AlgebraMap.base_inclusion(B), 3)
            for r in range(1, 4):
                d = complex_.differentials[r - 1]
                for idx in itertools.product(range(B.dim), repeat=r):
                    factors = [basis[i] for i in idx]
                    expected = (field.zero,) * B.dim ** (r + 1)
                    for k in range(r + 1):
                        term = pure_tensor(field, factors[:k] + [B.unit] + factors[k:])
                        sign = field.one if k % 2 == 0 else -field.one
                        expected = tuple(e + sign * x for e, x in zip(expected, term))
                    assert d.apply(pure_tensor(field, factors)) == expected

    def test_recurrence_equals_face_sum(self):
        # d^r = sum_i (-1)^i I_{m^i} (x) u (x) I_{m^(r-i)}, then I_t (x) d^r
        for B in self.algebras():
            field = B.field
            m = B.dim
            unit = Matrix.from_cols(field, [B.unit])
            f = AlgebraMap.base_inclusion(B)
            for t in (1, 2):
                complex_ = amitsur_complex(f, 4, coefficient_dim=t)
                assert len(complex_.differentials) == 4
                for r, d in enumerate(complex_.differentials, start=1):
                    faces = [kron(Matrix.identity(field, m ** i),
                                  unit if i % 2 == 0 else -unit,
                                  Matrix.identity(field, m ** (r - i)))
                             for i in range(r + 1)]
                    expected = kron(Matrix.identity(field, t), sum(faces[1:], faces[0]))
                    assert d == expected, (B, t, r)

    def test_canonical_datum_is_the_flip(self):
        # M' = B (x) M with M of rank 2: b_i (x) m_a sits at (a, i); the
        # datum sends (b_i (x) m_a) (x) b_j to b_i (x) (b_j (x) m_a)
        rank = 2
        for B in self.algebras():
            field = B.field
            m = B.dim
            phi = canonical_datum_matrix(B, rank)
            for a, i, j in itertools.product(range(rank), range(m), range(m)):
                col = position((rank, m, m), (a, i, j))
                target = position((m, rank, m), (i, a, j))
                assert phi.col(col) == tuple(
                    field.one if row == target else field.zero
                    for row in range(phi.nrows))


class TestFaithfullyFlat:
    def test_field_to_product(self):
        P = qq_squared()
        f = AlgebraMap.base_inclusion(P)
        report = check_faithfully_flat(f)
        assert report.mode == "field-source"

    def test_zero_target(self):
        zero = FiniteAlgebra.zero(QQ)
        base = FiniteAlgebra.base(QQ)
        f = AlgebraMap(base, zero, Matrix.zero(QQ, 0, 1))
        with pytest.raises(ZeroTarget):
            check_faithfully_flat(f)

    def test_map_into_the_zero_algebra_keeps_its_shape(self):
        """A map A -> 0 has a 0 x dim A matrix and applies to vectors of
        A; a matrix of another shape is refused like any other."""
        zero = FiniteAlgebra.zero(QQ)
        maps = [AlgebraMap.base_inclusion(zero)] + [
            AlgebraMap(source, zero, Matrix.zero(QQ, 0, source.dim))
            for source in (FiniteAlgebra.base(QQ), qq_squared())]
        for f in maps:
            assert (f.matrix.nrows, f.matrix.ncols) == (0, f.source.dim)
            assert f.apply(f.source.unit) == ()
        for wrong in (Matrix(QQ, []), Matrix.zero(QQ, 0, 2), Matrix.zero(QQ, 1, 1)):
            with pytest.raises(ShapeMismatch, match="^matrix shape does not match the algebras$"):
                AlgebraMap(FiniteAlgebra.base(QQ), zero, wrong)

    @staticmethod
    def pairing():
        """A = Q x Q inside B = Q x Q x Q x Q, pairing the factors: (a, b)
        goes to (a, a, b, b)."""
        base = FiniteAlgebra.base(QQ)
        A = FiniteAlgebra.product([base, base])
        B = FiniteAlgebra.product([base, base, base, base])
        one, zero = QQ.one, QQ.zero
        return AlgebraMap(A, B, Matrix(QQ, [
            [one, zero], [one, zero], [zero, one], [zero, one]]))

    def test_free_basis_verified(self):
        # B is free of rank 2 over the pairing, with basis
        # {(1,0,1,0), (0,1,0,1)}
        f = self.pairing()
        one, zero = QQ.one, QQ.zero
        good = [(one, zero, one, zero), (zero, one, zero, one)]
        report = check_faithfully_flat(f, basis=good)
        assert report.free_rank == 2
        with pytest.raises(BasisNotIndependent):
            check_faithfully_flat(f, basis=[(one, zero, one, zero),
                                            (one, zero, one, zero)])
        with pytest.raises(BasisNotSpanning):
            check_faithfully_flat(f, basis=[good[0]])

    def test_candidate_vectors_of_the_wrong_length(self):
        f = self.pairing()
        one, zero = QQ.one, QQ.zero
        short = (one, zero, one)
        with pytest.raises(ShapeMismatch, match=r"^candidate basis vector 0 has length 3, "
                                                r"expected 4$"):
            check_faithfully_flat(f, basis=[short, (zero, one, zero, one)])
        with pytest.raises(ShapeMismatch, match=r"^candidate basis vector 1 has length 5, "
                                                r"expected 4$"):
            check_faithfully_flat(f, basis=[(one, zero, one, zero), short + (zero, one)])
        with pytest.raises(BasisNotSpanning, match=r"rank 0 < 4"):
            check_faithfully_flat(f, basis=[])


class TestAmitsur:
    def test_identity_map_complex(self):
        base = FiniteAlgebra.base(QQ)
        f = AlgebraMap.base_inclusion(base)
        complex_ = amitsur_complex(f, 3)
        report = check_exactness(complex_)
        assert report.degrees[0][1] == 1

    def test_q_squared(self):
        P = qq_squared()
        f = AlgebraMap.base_inclusion(P)
        complex_ = amitsur_complex(f, 3)
        assert complex_.differentials[0].nrows == 4
        report = check_exactness(complex_)
        assert report.degrees[0][1] == 1

    def test_qi(self):
        Qi, B = qi_algebra()
        f = AlgebraMap.base_inclusion(B)
        report = check_exactness(amitsur_complex(f, 3))
        assert report.degrees[0][1] == 1

    def test_coefficient_module(self):
        P = qq_squared()
        f = AlgebraMap.base_inclusion(P)
        complex_ = amitsur_complex(f, 3, coefficient_dim=3)
        report = check_exactness(complex_)
        assert report.degrees[0][1] == 3

    def corrupted(self):
        """The complex of Q -> Q x Q with the sign of one entry of d^2
        flipped."""
        P = qq_squared()
        f = AlgebraMap.base_inclusion(P)
        complex_ = amitsur_complex(f, 3)
        d1 = complex_.differentials[1]
        rows = [list(r) for r in d1.rows]
        target = next(
            (r, c) for r in range(d1.nrows) for c in range(d1.ncols)
            if rows[r][c])
        rows[target[0]][target[1]] = -rows[target[0]][target[1]]
        return AmitsurComplex(
            f, complex_.flatness, 1, complex_.first,
            [complex_.differentials[0], Matrix(QQ, rows),
             complex_.differentials[2]])

    def test_corrupted_differential_detected(self):
        with pytest.raises(NotExact) as info:
            check_exactness(self.corrupted())
        assert info.value.degree in (1, 2)

    def test_corrupted_differential_fails_homotopy(self):
        # A zero last differential keeps every composite zero; only the
        # homotopy identity on B^(x)3 can fail.
        P = qq_squared()
        f = AlgebraMap.base_inclusion(P)
        complex_ = amitsur_complex(f, 3)
        d3 = complex_.differentials[2]
        corrupted = AmitsurComplex(f, complex_.flatness, 1, complex_.first,
                                   complex_.differentials[:2]
                                   + [Matrix.zero(QQ, d3.nrows, d3.ncols)])
        with pytest.raises(NotExact, match="homotopy identity fails") as info:
            check_exactness(corrupted)
        assert info.value.degree == 2
        with pytest.raises(NotExact) as info:
            rank_exactness(corrupted)
        assert info.value.degree == 2

    def test_homotopy_checks_composites(self):
        # Adding to the last differential a matrix that the section kills
        # keeps every homotopy identity; only d^3 d^2 = 0 can fail.  The
        # section of Q -> Q x Q reads the first coordinate.
        P = qq_squared()
        f = AlgebraMap.base_inclusion(P)
        complex_ = amitsur_complex(f, 3)
        d2, d3 = complex_.differentials[1:]
        col = next(c for c in range(d2.nrows) if any(d2.rows[c]))
        rows = [list(r) for r in d3.rows]
        rows[-1][col] = rows[-1][col] + QQ.one
        corrupted = AmitsurComplex(f, complex_.flatness, 1, complex_.first,
                                   complex_.differentials[:2] + [Matrix(QQ, rows)])
        with pytest.raises(NotExact, match="composite is nonzero") as info:
            check_exactness(corrupted)
        assert info.value.degree == 2

    def test_homotopy_section_from_the_map(self):
        # Q[x]/(x^2) on the basis (x, 1/2): f(1) = (0, 2), so the section
        # reads the second coordinate and halves it
        half, zero = QQ.from_int(2).inverse(), QQ.zero
        sc = [[(zero, zero), (half, zero)],
              [(half, zero), (zero, half)]]
        B = FiniteAlgebra(QQ, sc, (zero, QQ.from_int(2)))
        f = AlgebraMap.base_inclusion(B)
        for t in (1, 2):
            complex_ = amitsur_complex(f, 3, coefficient_dim=t)
            assert check_exactness(complex_).degrees == rank_exactness(complex_).degrees

    def test_first_map_not_injective(self):
        P = qq_squared()
        f = AlgebraMap.base_inclusion(P)
        complex_ = amitsur_complex(f, 1)
        # d^0 = 0 keeps the composite d^1 d^0 zero
        corrupted = AmitsurComplex(f, complex_.flatness, 1, Matrix.zero(QQ, 2, 1),
                                   complex_.differentials)
        with pytest.raises(NotExact, match="first map is not injective") as info:
            check_exactness(corrupted)
        assert info.value.degree == 0

    def test_coefficient_dim_zero_is_kept(self):
        f = AlgebraMap.base_inclusion(qq_squared())
        complex_ = amitsur_complex(f, 3, coefficient_dim=0)
        assert complex_.coefficient_dim == 0
        assert all((d.nrows, d.ncols) == (0, 0)
                   for d in [complex_.first, *complex_.differentials])
        assert check_exactness(complex_).degrees == [(r, 0, 0) for r in range(3)]

    def test_negative_coefficient_dim_rejected(self):
        f = AlgebraMap.base_inclusion(qq_squared())
        with pytest.raises(ShapeMismatch):
            amitsur_complex(f, 3, coefficient_dim=-1)

    def test_non_field_source_rejected(self):
        base = FiniteAlgebra.base(QQ)
        A = FiniteAlgebra.product([base, base])
        B = FiniteAlgebra.product([base, base])
        f = AlgebraMap(A, B, Matrix.identity(QQ, 2))
        with pytest.raises(UnsupportedBase):
            amitsur_complex(f, 2)


def rank_exactness(complex_):
    """The rank proof that ``check_exactness`` replaced, kept as its
    reference: rank identities degree by degree, after the composites, so
    that a corrupted differential is caught here."""
    maps = [complex_.first, *complex_.differentials]
    for degree, (a, b) in enumerate(zip(maps, maps[1:])):
        if not (b * a).is_zero():
            raise NotExact(degree, "composite is nonzero")
    first = complex_.first
    image_rank = first.rank()
    if image_rank != first.ncols:
        raise NotExact(0, "first map is not injective")
    report = []
    for degree, d in enumerate(complex_.differentials):
        rank = d.rank()
        kernel_rank = d.ncols - rank
        if kernel_rank != image_rank:
            raise NotExact(degree,
                           f"kernel rank {kernel_rank} != image rank {image_rank}")
        report.append((degree, kernel_rank, image_rank))
        image_rank = rank
    return ExactnessReport(report)


# the maps of the golden Amitsur documents and of the perfbench algebra
# workload, each with its rmax
REFERENCE_MAPS = {
    "F3 -> GF(9)": (lambda: FiniteAlgebra.from_extension(finite_field(3, 2)), 3),
    "Q -> Q x Q": (qq_squared, 3),
    "Q -> Q x Cyclo(4)": (lambda: FiniteAlgebra.product(
        [FiniteAlgebra.base(QQ), FiniteAlgebra.from_extension(cyclotomic_field(4))]), 4),
    "F3 -> GF(9) rmax 7": (lambda: FiniteAlgebra.from_extension(finite_field(3, 2)), 7),
}


class TestAgainstRankProof:
    """``check_exactness`` against the rank proof it replaced."""

    @pytest.mark.parametrize("t", [0, 1, 3])
    @pytest.mark.parametrize("name", sorted(REFERENCE_MAPS))
    def test_reference_maps(self, name, t):
        build, rmax = REFERENCE_MAPS[name]
        complex_ = amitsur_complex(AlgebraMap.base_inclusion(build()), rmax,
                                   coefficient_dim=t)
        assert check_exactness(complex_).degrees == rank_exactness(complex_).degrees


if given is not None:
    @st.composite
    def targets(draw):
        """A product of one to three factors over QQ, GF(2) or GF(3), each
        the base field or an extension of degree 2: Q(i) or Cyclo(3) over
        QQ, GF(p^2) over GF(p)."""
        base = draw(st.sampled_from(["QQ", "GF(2)", "GF(3)"]))
        field = QQ if base == "QQ" else GF(int(base[3]))

        def factor(kind):
            if kind == "base":
                return FiniteAlgebra.base(field)
            if base == "QQ":
                return FiniteAlgebra.from_extension(
                    cyclotomic_field(3) if kind == "cyclo3" else qi_algebra()[0])
            return FiniteAlgebra.from_extension(finite_field(field.characteristic, 2))

        kinds = draw(st.lists(st.sampled_from(["base", "ext", "cyclo3"]),
                              min_size=1, max_size=3))
        factors = [factor(k) for k in kinds]
        return factors[0] if len(factors) == 1 else FiniteAlgebra.product(factors)

    @st.composite
    def complexes(draw):
        """An Amitsur complex of k -> B for a drawn target B, kept to
        differentials of at most 4^4 x 4^3 times t."""
        B = draw(targets())
        rmax = draw(st.integers(0, 3 if B.dim <= 4 else 2))
        t = draw(st.integers(0, 2))
        return amitsur_complex(AlgebraMap.base_inclusion(B), rmax, coefficient_dim=t)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(complexes())
    def test_genuine_complexes_agree(complex_):
        assert check_exactness(complex_).degrees == rank_exactness(complex_).degrees

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(complexes(), st.data())
    def test_corruption_rejected_where_the_reference_rejects(complex_, data):
        # One nonzero entry of one differential is changed.  Whenever the
        # rank proof rejects the result, the homotopy proof must as well.
        # The converse need not hold: the homotopy is fixed by the map, and
        # a corrupted complex may be exact with d h + h d != I.
        nonzero = [(k, r, c) for k, d in enumerate(complex_.differentials)
                   for r, row in enumerate(d.rows) for c, a in enumerate(row) if a]
        if not nonzero:
            return
        k, r, c = data.draw(st.sampled_from(nonzero))
        field = complex_.map.target.field
        d = complex_.differentials[k]
        rows = [list(row) for row in d.rows]
        shift = data.draw(st.sampled_from(
            [field.from_int(n) for n in (1, 2, -1)]).filter(bool))
        rows[r][c] = rows[r][c] + shift
        differentials = list(complex_.differentials)
        differentials[k] = Matrix(field, rows)
        corrupted = AmitsurComplex(complex_.map, complex_.flatness,
                                   complex_.coefficient_dim, complex_.first, differentials)
        try:
            rank_exactness(corrupted)
        except NotExact:
            with pytest.raises(NotExact):
                check_exactness(corrupted)


class TestModuleDescent:
    def test_canonical_rank_one(self):
        Qi, B = qi_algebra()
        phi = canonical_datum_matrix(B, 1)
        data = FreeModuleData(B, 1, phi)
        check_cocycle(data)
        module = reconstruct_module(data)
        assert module.dim == 1

    def test_twisted_data_reconstruct(self):
        rng = random.Random(31)
        cases = [qi_algebra()[1], qq_squared(),
                 FiniteAlgebra.from_extension(finite_field(3, 2))]
        count = 0
        for B in cases:
            field = B.field
            elems = ([field.from_int(n) for n in range(-2, 3)]
                     if not field.is_finite else list(field.elements()))
            for rank in (1, 2):
                for _ in range(4):
                    u = [[tuple(rng.choice(elems) for _ in range(B.dim))
                          for _ in range(rank)] for _ in range(rank)]
                    phi = canonical_datum_matrix(B, rank)
                    try:
                        data = twist_datum(B, rank, phi, u)
                    except SingularMatrix:
                        continue  # random u not invertible
                    check_cocycle(data)
                    module = reconstruct_module(data)
                    assert module.dim == rank
                    count += 1
        assert count >= 20

    def test_non_linear_map_rejected(self):
        Qi, B = qi_algebra()
        bad = Matrix.identity(QQ, 4)
        rows = [list(r) for r in bad.rows]
        rows[0][1] = QQ.one
        with pytest.raises(NotBilinearCompatible):
            check_cocycle(FreeModuleData(B, 1, Matrix(QQ, rows)))

    def test_corruptions_rejected(self):
        Qi, B = qi_algebra()
        phi = canonical_datum_matrix(B, 1)
        rejected = 0
        cases = 0
        for r in range(4):
            for c in range(4):
                if cases >= 10:
                    break
                rows = [list(row) for row in phi.rows]
                rows[r][c] = rows[r][c] + QQ.one
                cases += 1
                try:
                    check_cocycle(FreeModuleData(B, 1, Matrix(QQ, rows)))
                except (NotBilinearCompatible, CocycleFailed):
                    rejected += 1
        assert cases == 10
        assert rejected == 10


class TestGaloisFlatConsistency:
    def make_unit_datum(self, c_value):
        """The rank-1 datum over B = Q(i) whose reconstruction matches the
        semilinear module with cocycle c."""
        Qi, B = qi_algebra()
        from galdescent.galois import cyclotomic_group
        from galdescent.weil import SeparableExtensionData, etale_splitting

        ext, group = cyclotomic_group(4)
        data = SeparableExtensionData.discover(ext, ext, group)
        idempotents = etale_splitting(data)
        T = VectorAlgebra.tensor(FiniteAlgebra.from_extension(ext),
                                 FiniteAlgebra.from_extension(ext))
        # embeddings sorted by representation; match them to group elements
        w = T.zero_vector()
        for e_vec, emb in zip(idempotents, data.embeddings):
            sigma = next(s for s in group.elements if s.image == emb.image)
            if sigma.is_identity() or c_value is None:
                c_sigma = ext.one
            else:
                c_sigma = c_value
            w = T.add(w, T.mul(e_vec, T.embed_right(ext.coords(c_sigma))))
        phi = T.mult_matrix(w)
        return ext, group, B, FreeModuleData(B, 1, phi)

    def test_valid_cocycle_matches_semilinear(self):
        from galdescent.linalg import span_contains
        from galdescent.semilinear import SemilinearModule, fixed_subspace

        ext, group, B, data = self.make_unit_datum(None)
        i = ext.generator
        ext2, group2, B2, data_i = self.make_unit_datum(i)
        check_cocycle(data_i)
        module = reconstruct_module(data_i)
        assert module.dim == 1
        semi = SemilinearModule(group2, 1,
                                [Matrix.identity(ext2, 1), Matrix(ext2, [[i]])])
        space = fixed_subspace(semi)
        assert space.dim == 1
        # both descriptions cut out the same line inside Q(i)
        (m_vec,) = module.basis
        reconstructed_elem = ext2.from_coords(m_vec)
        (fixed_vec,) = space.embedding
        assert span_contains(ext2, [fixed_vec], (reconstructed_elem,))

    def test_invalid_cocycle_rejected(self):
        ext, group, B, data = self.make_unit_datum(None)
        one_plus_i = ext.one + ext.generator
        _, _, _, bad = self.make_unit_datum(one_plus_i)
        with pytest.raises(CocycleFailed):
            check_cocycle(bad)
