import random

import pytest

from galdescent.errors import (
    CocycleViolation,
    InternalContradiction,
    NotStable,
    ShapeMismatch,
)
from galdescent.extension import finite_field, make_extension
from galdescent.fields import GF, QQ
from galdescent.galois import (
    GaloisGroup,
    check_fixed_field,
    cyclotomic_group,
    frobenius_group,
    verify_automorphism,
)
from galdescent.linalg import (
    Matrix,
    contract_vector,
    fixed_space_basis,
    kron,
    restrict_scalars_matrix,
    span_contains,
)
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
from helpers import coboundary_module, element_named, expand_vector

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:  # a test extra: the pinned cases still run without it
    given = None


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
            module = coboundary_module(group, b)
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
                    module = coboundary_module(group, b)
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
                module = coboundary_module(group, b)
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

    def test_stable_under_a_subgroup_only(self):
        # over Q(zeta_8), s3 fixes c = zeta + zeta^3 = i*sqrt(2), so the line
        # of (1, c) is stable under {id, s3} but has no rational point; the
        # trace Tr(1) = 4 gives the fixed vector (4, 0), which leaves it
        ext, group = cyclotomic_group(8)
        z = ext.generator
        subgroup = group.subgroup([element_named(group, "s3")])
        with pytest.raises(InternalContradiction, match="escaped the span"):
            descend_subspace(KSpace(QQ, 2), [(ext.one, z + z ** 3)], subgroup)


def reference_intersect_spans(field, vectors_a, vectors_b):
    """Basis of span(vectors_a) & span(vectors_b), read off the kernel of
    [vectors_a | vectors_b] and reduced to row echelon form."""
    if not vectors_a or not vectors_b:
        return []
    stacked = Matrix.from_cols(field, [list(v) for v in vectors_a + vectors_b])
    out = []
    for kv in stacked.kernel_basis():
        vec = None
        for coeff, base_vec in zip(kv[:len(vectors_a)], vectors_a):
            term = tuple(coeff * x for x in base_vec)
            vec = term if vec is None else tuple(a + b for a, b in zip(vec, term))
        if vec is not None and any(vec):
            out.append(vec)
    if not out:
        return []
    reduced, pivots = Matrix(field, out).rref()
    return [reduced.rows[i] for i in range(len(pivots))]


def reference_descend_subspace(space, spanning, group):
    """:func:`descend_subspace` with the fixed part computed as the
    intersection of the expanded Omega-span with the rational slice k^n."""
    ext = group.ext
    base = ext.base
    n = space.dim
    spanning = [tuple(v) for v in spanning if any(v)]
    for v in spanning:
        if len(v) != n:
            raise ShapeMismatch("spanning vector of wrong length")
    for idx in group.generator_indices:
        sigma = group.elements[idx]
        for v in spanning:
            if not span_contains(ext, spanning, tuple(sigma(x) for x in v)):
                raise NotStable(sigma.name, v)
    d = ext.degree
    omega_basis = [expand_vector(tuple(b * x for x in v), ext)
                   for v in spanning for b in ext.power_basis()]
    rational_slice = []
    for i in range(n):
        coords = [base.zero] * (n * d)
        coords[i * d] = base.one
        rational_slice.append(tuple(coords))
    fixed_vectors = [contract_vector(v, ext, n)
                     for v in reference_intersect_spans(base, omega_basis, rational_slice)]
    for v in fixed_vectors:
        if not span_contains(ext, spanning, v):
            raise InternalContradiction("fixed vector escaped the span")
    for v in spanning:
        if not span_contains(ext, fixed_vectors, v):
            raise InternalContradiction(
                "stable subspace is not spanned by its fixed part")
    return KSpace(base, len(fixed_vectors), fixed_vectors, ambient_dim=n)


def descent_outcome(space, spanning, group, descend):
    """The dimension and embedding of a descent, or the type and message of
    what it raised."""
    try:
        result = descend(space, spanning, group)
    except Exception as exc:  # compared, never swallowed: see the caller
        return type(exc), str(exc)
    return result.dim, result.embedding


if given is not None:
    SUBSPACE_GROUPS = {
        "GF(9)": lambda: frobenius_group(finite_field(3, 2)),
        "GF(27)": lambda: frobenius_group(finite_field(3, 3)),
        "Q(i)": lambda: cyclotomic_group(4)[1],
        "Q(zeta8)": lambda: cyclotomic_group(8)[1],
    }

    @st.composite
    def subspaces(draw):
        """(group, ambient dimension, spanning vectors): a stable subspace is
        the Omega-span of up to n rational vectors, mixed by Omega-scalars;
        an unstable one is drawn with arbitrary Omega-entries.  Entries over
        Q(i) and Q(zeta8) have coordinates in [-2, 2]."""
        group = SUBSPACE_GROUPS[draw(st.sampled_from(sorted(SUBSPACE_GROUPS)))]()
        ext = group.ext
        base = ext.base
        rationals = [base.from_int(k) for k in range(-2, 3)]
        if ext.is_finite:
            rationals = list(base.elements())
        omega = st.tuples(*[st.sampled_from(rationals)] * ext.degree).map(ext.from_coords)
        rational = st.sampled_from(rationals).map(ext.from_base)
        n = draw(st.integers(1, 3))
        if draw(st.booleans()):
            k_vectors = draw(st.lists(st.tuples(*[rational] * n), max_size=n))
            spanning = []
            for _ in range(draw(st.integers(0, n))):
                acc = (ext.zero,) * n
                for kv in k_vectors:
                    c = draw(omega)
                    acc = tuple(a + c * x for a, x in zip(acc, kv))
                spanning.append(acc)
        else:
            spanning = draw(st.lists(st.tuples(*[st.one_of(rational, omega)] * n),
                                     max_size=n))
        return group, n, spanning

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(subspaces())
    def test_trace_descent_matches_intersection(case):
        group, n, spanning = case
        space = KSpace(group.ext.base, n)
        assert (descent_outcome(space, spanning, group, descend_subspace)
                == descent_outcome(space, spanning, group, reference_descend_subspace))


def reference_fixed_subspace(module):
    """:func:`fixed_subspace` with the base-field matrix of v -> c_sigma *
    sigma(v) stacked for every element other than the identity, not only for
    the generators."""
    group = module.group
    ext = group.ext
    base = ext.base
    n = module.dim
    ident = Matrix.identity(base, n)
    matrices = [restrict_scalars_matrix(module.cocycle[i], ext) * kron(ident, sigma.matrix())
                for i, sigma in enumerate(group.elements) if i != group.identity_index]
    kernel = fixed_space_basis(base, n * ext.degree, matrices)
    if len(kernel) != n:
        raise InternalContradiction(
            f"fixed subspace has dimension {len(kernel)}, expected {n}; "
            "the action data must be invalid")
    return KSpace(base, n, [contract_vector(v, ext, n) for v in kernel], ambient_dim=n)


def reference_fixed_field(group):
    """:func:`check_fixed_field` with every element other than the identity
    stacked, not only the generators."""
    ext = group.ext
    moving = [sigma.matrix() for i, sigma in enumerate(group.elements)
              if i != group.identity_index]
    return [ext.from_coords(v) for v in fixed_space_basis(ext.base, ext.degree, moving)]


GENERATED_GROUPS = {
    "GF(8)": lambda: frobenius_group(finite_field(2, 3)),
    "GF(16)": lambda: frobenius_group(finite_field(2, 4)),
    "GF(27)": lambda: frobenius_group(finite_field(3, 3)),
    "Cyclo(5)": lambda: cyclotomic_group(5)[1],
    # two generators, s3 and s5
    "Cyclo(8)": lambda: cyclotomic_group(8)[1],
}


class TestGeneratorsCutOutFixedSpaces:
    @pytest.mark.parametrize("name", sorted(GENERATED_GROUPS))
    def test_fixed_fields_of_subgroups_match_all_elements(self, name):
        group = GENERATED_GROUPS[name]()
        n = group.order
        generator_sets = [[i] for i in range(n)] + [[i, j] for i in range(n) for j in range(i)]
        for sub in [group] + [group.subgroup(gens) for gens in generator_sets]:
            assert check_fixed_field(sub) == reference_fixed_field(sub)

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_cyclic_shift_matches_all_elements(self, d):
        # c_frob^k = P^k for the d x d cyclic shift P, over GF(2^d)
        ext = finite_field(2, d)
        group = frobenius_group(ext)
        shift = Matrix(ext, [[ext.one if j == (i + 1) % d else ext.zero for j in range(d)]
                             for i in range(d)])
        powers = [Matrix.identity(ext, d)]
        for _ in range(d - 1):
            powers.append(powers[-1] * shift)
        module = SemilinearModule(group, d, powers)
        validate_action(module)
        space, reference = fixed_subspace(module), reference_fixed_subspace(module)
        assert (space.dim, space.embedding) == (reference.dim, reference.embedding)


if given is not None:
    @st.composite
    def boundary_modules(draw):
        """The module with cocycle c_sigma = b^{-1} sigma(b) for an invertible
        b of size 0 to 3; entries over Cyclo(5) and Cyclo(8) have
        coordinates in [-2, 2]."""
        group = GENERATED_GROUPS[draw(st.sampled_from(sorted(GENERATED_GROUPS)))]()
        ext = group.ext
        base = ext.base
        coords = (list(base.elements()) if ext.is_finite
                  else [base.from_int(k) for k in range(-2, 3)])
        entry = st.tuples(*[st.sampled_from(coords)] * ext.degree).map(ext.from_coords)
        n = draw(st.integers(0, 3))
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=n, max_size=n))
        b = Matrix(ext, rows)
        assume(b.is_invertible())
        return coboundary_module(group, b)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(boundary_modules())
    def test_generator_fixed_space_matches_all_elements(module):
        space, reference = fixed_subspace(module), reference_fixed_subspace(module)
        assert (space.dim, space.embedding) == (reference.dim, reference.embedding)
