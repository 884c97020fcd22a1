import random

import pytest

from galdescent.errors import CocycleViolation, NotStable
from galdescent.extension import finite_field, make_extension
from galdescent.fields import GF, QQ
from galdescent.galois import GaloisGroup, cyclotomic_group, frobenius_group, verify_automorphism
from galdescent.linalg import Matrix, span_contains
from galdescent.semilinear import (
    KSpace,
    SemilinearModule,
    counit_check,
    descend_subspace,
    extend_scalars,
    fixed_subspace,
    validate_action,
)
from galdescent.unipoly import UniPoly


def qi_group():
    return cyclotomic_group(4)


def random_invertible(rng, field, n, elems):
    while True:
        m = Matrix(field, [[rng.choice(elems) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


class TestValidate:
    def test_trivial_action(self):
        ext, group = qi_group()
        module = SemilinearModule.trivial(group, 2)
        assert validate_action(module).pairs_checked == 4

    def test_i_twist_is_valid(self):
        ext, group = qi_group()
        i = ext.generator
        ident = Matrix.identity(ext, 1)
        twist = Matrix(ext, [[i]])
        module = SemilinearModule(group, 1, [ident, twist])
        # i * conj(i) = i * (-i) = 1
        validate_action(module)

    def test_one_plus_i_twist_violates(self):
        ext, group = qi_group()
        ident = Matrix.identity(ext, 1)
        twist = Matrix(ext, [[ext.one + ext.generator]])
        module = SemilinearModule(group, 1, [ident, twist])
        with pytest.raises(CocycleViolation):
            validate_action(module)


class TestFixedSubspace:
    def test_trivial_action_gives_standard_basis(self):
        ext, group = qi_group()
        module = SemilinearModule.trivial(group, 2)
        space = fixed_subspace(module)
        assert space.dim == 2
        for v in space.embedding:
            assert all(x == ext.zero or x == ext.one for x in v)

    def test_i_twist_fixed_line(self):
        ext, group = qi_group()
        i = ext.generator
        module = SemilinearModule(group, 1,
                                  [Matrix.identity(ext, 1), Matrix(ext, [[i]])])
        space = fixed_subspace(module)
        assert space.dim == 1
        (v,) = space.embedding
        # the fixed line is spanned by 1 + i
        assert span_contains(ext, [v], ((ext.one + i),))

    def test_identity_listed_second(self):
        F9 = finite_field(3, 2)
        frob, ident = reversed(frobenius_group(F9).elements)
        group = GaloisGroup.close_and_verify(F9, [frob, ident])
        assert group.identity_index == 1
        swap = Matrix(F9, [[F9.zero, F9.one], [F9.one, F9.zero]])
        module = SemilinearModule(group, 2, [swap, Matrix.identity(F9, 2)])
        assert fixed_subspace(module).dim == 2

    def test_gf9_swap(self):
        F9 = finite_field(3, 2)
        group = frobenius_group(F9)
        swap = Matrix(F9, [[F9.zero, F9.one], [F9.one, F9.zero]])
        module = SemilinearModule(group, 2, [Matrix.identity(F9, 2), swap])
        space = fixed_subspace(module)
        assert space.dim == 2
        # oracle: enumerate all 81 vectors and count the fixed ones
        fixed_count = 0
        for a in F9.elements():
            for b in F9.elements():
                if module.act(1, (a, b)) == (a, b):
                    fixed_count += 1
        assert fixed_count == 3 ** space.dim

    def test_counit_trivial(self):
        ext, group = qi_group()
        module = SemilinearModule.trivial(group, 2)
        P = counit_check(module)
        assert P.is_invertible()

    def test_counit_i_twist(self):
        ext, group = qi_group()
        i = ext.generator
        module = SemilinearModule(group, 1,
                                  [Matrix.identity(ext, 1), Matrix(ext, [[i]])])
        P = counit_check(module)
        assert P.nrows == 1 and P.is_invertible()
        assert span_contains(ext, [P.col(0)], ((ext.one + i),))


class TestRoundTrips:
    def test_extend_then_fix(self):
        F9 = finite_field(3, 2)
        group = frobenius_group(F9)
        space = KSpace(GF(3), 3)
        module = extend_scalars(space, group)
        assert module.dim == 3
        back = fixed_subspace(module)
        assert back.dim == 3

    def test_fix_then_extend_intertwines(self):
        # c_sigma * sigma(P) = P for the counit matrix P
        rng = random.Random(41)
        F25 = finite_field(5, 2)
        group = frobenius_group(F25)
        elems = list(F25.elements())
        for _ in range(5):
            b = random_invertible(rng, F25, 3, elems)
            module = SemilinearModule.from_boundary(group, b)
            validate_action(module)
            P = counit_check(module)
            for idx, sigma in enumerate(group.elements):
                assert module.cocycle[idx] * P.map_entries(sigma) == P


class TestSpeiserProperty:
    def test_random_cocycles_finite_fields(self):
        rng = random.Random(97)
        for p in (3, 5, 7):
            for deg in (2, 3):
                ext = finite_field(p, deg)
                group = frobenius_group(ext)
                elems = list(ext.elements())
                for n in (1, 2, 3):
                    b = random_invertible(rng, ext, n, elems)
                    module = SemilinearModule.from_boundary(group, b)
                    validate_action(module)
                    space = fixed_subspace(module)
                    assert space.dim == n
                    assert counit_check(module).is_invertible()

    def test_random_cocycles_over_q(self):
        rng = random.Random(13)
        for m in (4, 5):
            ext, group = cyclotomic_group(m)
            elems = [ext.from_int(k) for k in range(-2, 3)] + [ext.generator,
                                                               ext.generator + 1]
            for n in (1, 2):
                b = random_invertible(rng, ext, n, elems)
                module = SemilinearModule.from_boundary(group, b)
                validate_action(module)
                space = fixed_subspace(module)
                assert space.dim == n
                assert counit_check(module).is_invertible()


class TestDescendSubspace:
    def test_whole_space(self):
        ext, group = qi_group()
        V0 = KSpace(QQ, 2)
        spanning = [(ext.one, ext.zero), (ext.zero, ext.one)]
        result = descend_subspace(V0, spanning, group)
        assert result.dim == 2

    def test_sqrt2_line_not_stable(self):
        K = make_extension(QQ, UniPoly.from_ints(QQ, [-2, 0, 1]), irreducible=True)
        ident = verify_automorphism(K, K.generator, "id")
        conj = verify_automorphism(K, -K.generator, "conj")
        group = GaloisGroup.close_and_verify(K, [ident, conj])
        V0 = KSpace(QQ, 2)
        sqrt2 = K.generator
        with pytest.raises(NotStable):
            descend_subspace(V0, [(K.one, sqrt2)], group)

    def test_first_offender_is_a_generator(self):
        # over Q(zeta_8), c = zeta + zeta^3 is fixed by s3 and negated by s5
        # and s7; stability is checked on the generators s3 and s5 only
        ext, group = cyclotomic_group(8)
        z = ext.generator
        with pytest.raises(NotStable) as info:
            descend_subspace(KSpace(QQ, 2), [(ext.one, z + z ** 3)], group)
        assert info.value.sigma == "s5"

    def test_conjugate_pair_spans_plane(self):
        ext, group = qi_group()
        i = ext.generator
        V0 = KSpace(QQ, 2)
        v = (ext.one + i, ext.one - i)
        w = (ext.one - i, ext.one + i)  # the conjugate
        result = descend_subspace(V0, [v, w], group)
        assert result.dim == 2

    def test_nonzero_stable_has_nonzero_fixed_part(self):
        rng = random.Random(7)
        F9 = finite_field(3, 2)
        group = frobenius_group(F9)
        elems = [e for e in F9.elements()]
        nonzero = [e for e in elems if e]
        for _ in range(10):
            n = rng.randrange(2, 5)
            r = rng.randrange(1, n)
            V0 = KSpace(GF(3), n)
            # random stable subspace: Omega-span of random k-rational vectors,
            # mixed by a random invertible Omega-matrix
            k_vectors = []
            while len(k_vectors) < r:
                vec = tuple(F9.from_int(rng.randrange(3)) for _ in range(n))
                if any(vec) and not span_contains(F9, k_vectors, vec):
                    k_vectors.append(vec)
            mix = random_invertible(rng, F9, r, nonzero)
            spanning = []
            for row in mix.rows:
                acc = tuple(F9.zero for _ in range(n))
                for c, kv in zip(row, k_vectors):
                    acc = tuple(a + c * x for a, x in zip(acc, kv))
                spanning.append(acc)
            result = descend_subspace(V0, spanning, group)
            assert result.dim == r
            assert result.dim >= 1

    def test_rational_vectors_of_w_lie_in_result(self):
        ext, group = qi_group()
        i = ext.generator
        V0 = KSpace(QQ, 3)
        one, zero = ext.one, ext.zero
        spanning = [(one, i, zero), (one, -i, zero)]
        result = descend_subspace(V0, spanning, group)
        assert result.dim == 2
        # every rational vector inside W lies in the span of the result
        assert span_contains(ext, result.embedding, (one, zero, zero))
        assert span_contains(ext, result.embedding, (zero, one * i * -i, zero))
