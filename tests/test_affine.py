import pytest

from galdescent import affine
from galdescent.affine import (
    AffineAlgebra,
    AffineDescentDatum,
    SemilinearAlgebraMap,
    canonical_datum,
    derive_point_action,
    descend_algebra,
    descend_from_embeddings,
    descend_ideal,
    descend_morphism,
    embeddings_into,
    splits,
    validate_datum,
)
from galdescent.errors import (
    Budget,
    CocycleViolation,
    ConditionAViolated,
    NotEquivariant,
    NotStable,
    NotWellDefined,
    SplittingCheckFailed,
    TransportNotRational,
)
from galdescent.extension import finite_field
from galdescent.fields import GF, QQ
from galdescent.galois import cyclotomic_group, frobenius_group
from galdescent.groebner import Ideal, ideal_equal
from galdescent.multipoly import MultiPolynomial


def qi():
    return cyclotomic_group(4)


def gm_algebra(field):
    x, y = MultiPolynomial.ring_vars(field, ("x", "y"))
    return AffineAlgebra(field, ("x", "y"),
                         Ideal(field, ("x", "y"), [x * y - 1]))


def swap_datum(ext, group):
    """The coordinate-swap twist of the multiplicative group."""
    algebra = gm_algebra(ext)
    x, y = algebra.vars()
    maps = []
    for idx, sigma in enumerate(group.elements):
        if idx == group.identity_index:
            maps.append(SemilinearAlgebraMap(sigma, {"x": x, "y": y}))
        else:
            maps.append(SemilinearAlgebraMap(sigma, {"x": y, "y": x}))
    return AffineDescentDatum(algebra, group, maps)


class TestValidate:
    def test_canonical_datum_valid(self):
        ext, group = qi()
        x_alg = AffineAlgebra(QQ, ("x",))
        datum = canonical_datum(x_alg, group)
        report = validate_datum(datum)
        assert report.pairs_checked == 4

    def test_swap_datum_valid(self):
        ext, group = qi()
        validate_datum(swap_datum(ext, group))

    def test_translation_violates_cocycle(self):
        ext, group = qi()
        algebra = AffineAlgebra(ext, ("x",))
        (x,) = algebra.vars()
        maps = [
            SemilinearAlgebraMap(group.elements[0], {"x": x}),
            SemilinearAlgebraMap(group.elements[1], {"x": x + 1}),
        ]
        datum = AffineDescentDatum(algebra, group, maps)
        with pytest.raises(CocycleViolation):
            validate_datum(datum)
        with pytest.raises(CocycleViolation):
            descend_algebra(datum)

    def test_corruption_always_detected(self):
        # corrupting any single non-identity image breaks validation
        ext, group = qi()
        base = swap_datum(ext, group)
        x, y = base.algebra.vars()
        i = MultiPolynomial.constant(ext, ("x", "y"), ext.generator)
        corrupted = AffineDescentDatum(
            base.algebra, group,
            [base.maps[0],
             SemilinearAlgebraMap(group.elements[1], {"x": y + i, "y": x})])
        with pytest.raises(NotWellDefined, match=r"x\*y - 1"):
            validate_datum(corrupted)


class TestDescendCanonical:
    def test_affine_line_over_qi(self):
        ext, group = qi()
        line = AffineAlgebra(QQ, ("x",))
        datum = canonical_datum(line, group)
        model = descend_algebra(datum)
        # kernel is (T1_1): the twist-free trace along i vanishes
        T = MultiPolynomial.ring_vars(QQ, model.algebra0.variables)
        expected = Ideal(QQ, model.algebra0.variables, [T[1]])
        assert ideal_equal(model.algebra0.relations, expected)
        assert splits(model, datum)

    def test_round_trip_extension(self):
        F9 = finite_field(3, 2)
        group = frobenius_group(F9)
        gm = gm_algebra(GF(3))
        datum = canonical_datum(gm, group)
        model = descend_algebra(datum)
        assert splits(model, datum)

    def test_zero_variable_algebra(self):
        ext, group = qi()
        point = AffineAlgebra(QQ, ())
        datum = canonical_datum(point, group)
        model = descend_algebra(datum)
        assert model.algebra0.variables == ()
        assert not model.algebra0.relations.generators

    def test_empty_scheme(self):
        ext, group = qi()
        one = MultiPolynomial.constant(QQ, ("x",), 1)
        empty = AffineAlgebra(QQ, ("x",), Ideal(QQ, ("x",), [one]))
        datum = canonical_datum(empty, group)
        model = descend_algebra(datum)
        assert model.algebra0.relations.is_unit_ideal()


class TestDescendSwap:
    def test_qi_swap_gives_norm_conic(self):
        ext, group = qi()
        datum = swap_datum(ext, group)
        model = descend_algebra(datum)
        names = model.algebra0.variables
        assert names == ("T1_0", "T1_1", "T2_0", "T2_1")
        T10, T11, T20, T21 = MultiPolynomial.ring_vars(QQ, names)
        expected = Ideal(QQ, names,
                         [T20 - T10, T21 + T11, T10 ** 2 + T11 ** 2 - 4])
        assert ideal_equal(model.algebra0.relations, expected)
        assert splits(model, datum)

    def test_naive_split_model_does_not_split_swap(self):
        ext, group = qi()
        datum = swap_datum(ext, group)
        from galdescent.affine import Model

        su = ("s", "u")
        s, u = MultiPolynomial.ring_vars(QQ, su)
        split_torus = AffineAlgebra(QQ, su, Ideal(QQ, su, [s * u - 1]))
        x, y = datum.algebra.vars()
        naive = Model(split_torus, {"s": x, "u": y}, datum)
        assert not splits(naive, datum)

    def test_splitting_that_is_not_onto_rejected(self):
        # x^2 is invariant and K[T] -> K[x], T -> x^2 is injective, but x
        # does not rewrite into T
        ext, group = qi()
        datum = canonical_datum(AffineAlgebra(QQ, ("x",)), group)
        from galdescent.affine import Model

        x, = datum.algebra.vars()
        square = Model(AffineAlgebra(QQ, ("T",)), {"T": x * x}, datum)
        assert not splits(square, datum)

    def test_certificate_rejects_non_invariant_splitting(self, monkeypatch):
        ext, group = qi()
        datum = swap_datum(ext, group)
        x, y = datum.algebra.vars()
        monkeypatch.setattr(affine, "_invariant_generators",
                            lambda datum: [[x, x], [y, y]])
        with pytest.raises(SplittingCheckFailed):
            descend_algebra(datum)

    def test_model_of_own_descent_splits(self):
        for q in (3, 5, 7):
            ext = finite_field(q, 2)
            group = frobenius_group(ext)
            datum = swap_datum(ext, group)
            model = descend_algebra(datum)
            assert splits(model, datum)


class TestTorusCounts:
    def enumerate_model_points(self, model, q):
        from galdescent.enumeration import count_affine_points

        return count_affine_points(
            list(model.algebra0.relations.generators),
            model.algebra0.field, len(model.algebra0.variables))

    def test_twisted_torus_has_q_plus_1_points(self):
        for q in (3, 5, 7):
            ext = finite_field(q, 2)
            group = frobenius_group(ext)
            model = descend_algebra(swap_datum(ext, group))
            assert self.enumerate_model_points(model, q) == q + 1

    def test_split_torus_has_q_minus_1_points(self):
        from galdescent.enumeration import count_affine_points

        for q in (3, 5, 7):
            gm = gm_algebra(GF(q))
            assert count_affine_points(
                list(gm.relations.generators), GF(q), 2) == q - 1


class TestPointAction:
    def test_canonical_line_action_is_frobenius(self):
        F9 = finite_field(3, 2)
        group = frobenius_group(F9)
        line = AffineAlgebra(GF(3), ("x",))
        datum = canonical_datum(line, group)
        action = derive_point_action(datum)
        assert len(action.points) == 9
        frob = group.elements[1]
        perm = action.permutations[1]
        for i, p in enumerate(action.points):
            assert action.points[perm[i]] == (frob(p[0]),)

    def test_swap_action_fixed_points(self):
        F9 = finite_field(3, 2)
        group = frobenius_group(F9)
        datum = swap_datum(F9, group)
        action = derive_point_action(datum)
        assert len(action.points) == 8  # GF(9) units
        assert len(action.fixed_points()) == 4  # q + 1

    def test_only_fixed_points_are_decoded(self, monkeypatch):
        from galdescent.enumeration import SmallFieldTables

        F9 = finite_field(3, 2)
        decoded = []
        original = SmallFieldTables.decode

        def counting(self, point):
            decoded.append(point)
            return original(self, point)

        monkeypatch.setattr(SmallFieldTables, "decode", counting)
        action = derive_point_action(swap_datum(F9, frobenius_group(F9)))
        assert decoded == []
        fixed = action.fixed_points()
        assert len(decoded) == len(fixed) == 4
        assert len(action.points) == 8
        assert [p for p in action.points if p in fixed] == fixed

    def test_empty_scheme_action(self):
        F9 = finite_field(3, 2)
        group = frobenius_group(F9)
        one = MultiPolynomial.constant(GF(3), ("x",), 1)
        empty = AffineAlgebra(GF(3), ("x",), Ideal(GF(3), ("x",), [one]))
        action = derive_point_action(canonical_datum(empty, group))
        assert action.points == []

    def test_fixed_points_match_model_counts(self):
        from galdescent.enumeration import count_affine_points

        for q in (3, 5):
            ext = finite_field(q, 2)
            group = frobenius_group(ext)
            datum = swap_datum(ext, group)
            model = descend_algebra(datum)
            action = derive_point_action(datum)
            model_count = count_affine_points(
                list(model.algebra0.relations.generators), GF(q),
                len(model.algebra0.variables))
            assert len(action.fixed_points()) == model_count


class TestDescendIdeal:
    def test_extension_of_rational_ideal_round_trips(self):
        ext, group = qi()
        plane = AffineAlgebra(QQ, ("x", "y"))
        x, y = MultiPolynomial.ring_vars(ext, ("x", "y"))
        xq, yq = MultiPolynomial.ring_vars(QQ, ("x", "y"))
        W = Ideal(ext, ("x", "y"), [(x - y).map_coeffs(lambda c: c)])
        result = descend_ideal(plane, group, W)
        assert ideal_equal(result, Ideal(QQ, ("x", "y"), [xq - yq]))

    def test_eigenline_not_stable(self):
        ext, group = qi()
        plane = AffineAlgebra(QQ, ("x", "y"))
        x, y = MultiPolynomial.ring_vars(ext, ("x", "y"))
        i = MultiPolynomial.constant(ext, ("x", "y"), ext.generator)
        with pytest.raises(NotStable):
            descend_ideal(plane, group, Ideal(ext, ("x", "y"), [y - i * x]))

    def test_orbit_product_descends(self):
        ext, group = qi()
        plane = AffineAlgebra(QQ, ("x", "y"))
        x, y = MultiPolynomial.ring_vars(ext, ("x", "y"))
        xq, yq = MultiPolynomial.ring_vars(QQ, ("x", "y"))
        W = Ideal(ext, ("x", "y"), [y * y + x * x])
        result = descend_ideal(plane, group, W)
        assert ideal_equal(result, Ideal(QQ, ("x", "y"), [xq ** 2 + yq ** 2]))

    def test_first_offender_is_a_generator(self):
        # over Q(zeta_8), c = zeta + zeta^3 is fixed by s3 and negated by s5
        # and s7; stability is checked on the generators s3 and s5 only
        ext, group = cyclotomic_group(8)
        assert [group.elements[i].name for i in group.generator_indices] == ["s3", "s5"]
        x, = MultiPolynomial.ring_vars(ext, ("x",))
        z = ext.generator
        c = MultiPolynomial.constant(ext, ("x",), z + z ** 3)
        with pytest.raises(NotStable) as info:
            descend_ideal(AffineAlgebra(QQ, ("x",)), group, Ideal(ext, ("x",), [x - c]))
        assert info.value.sigma == "s5"


class TestDescendMorphism:
    def make_line_data(self, group):
        line = AffineAlgebra(QQ, ("x",))
        datum = canonical_datum(line, group)
        model = descend_algebra(datum)
        return datum, model

    def test_identity(self):
        ext, group = qi()
        datum, model = self.make_line_data(group)
        (x,) = datum.algebra.vars()
        images = {"x": x}
        result = descend_morphism(datum, model, datum, model, images)
        # re-extension already validated internally; sanity: non-empty images
        assert set(result) == set(model.algebra0.variables)

    def test_squaring(self):
        ext, group = qi()
        datum, model = self.make_line_data(group)
        (x,) = datum.algebra.vars()
        result = descend_morphism(datum, model, datum, model, {"x": x * x})
        for poly in result.values():
            assert poly.field == QQ

    def test_i_scaling_not_equivariant(self):
        ext, group = qi()
        datum, model = self.make_line_data(group)
        (x,) = datum.algebra.vars()
        i = MultiPolynomial.constant(ext, ("x",), ext.generator)
        with pytest.raises(NotEquivariant):
            descend_morphism(datum, model, datum, model, {"x": i * x})

    def test_trace_map_from_twisted_torus(self):
        # the trace coordinate x + y on the swapped torus is equivariant for
        # the canonical datum on a line, so it descends
        ext, group = qi()
        datum_a = swap_datum(ext, group)
        model_a = descend_algebra(datum_a)
        line = AffineAlgebra(QQ, ("z",))
        datum_b = canonical_datum(line, group)
        model_b = descend_algebra(datum_b)
        x, y = datum_a.algebra.vars()
        result = descend_morphism(datum_a, model_a, datum_b, model_b,
                                  {"z": x + y})
        for poly in result.values():
            assert poly.field == QQ
        # z's first invariant is 2z, transported to 2(x + y) = 2 T1_0
        names_a = model_a.algebra0.variables
        T = dict(zip(names_a, MultiPolynomial.ring_vars(QQ, names_a)))
        first = model_b.algebra0.variables[0]
        assert result[first] == 2 * T["T1_0"] or result[first] == 2 * T["T2_0"]

    def test_irrational_transport_rejected(self, monkeypatch):
        # a rewrite scaled by i has a coefficient outside Q
        ext, group = qi()
        datum, model = self.make_line_data(group)
        (x,) = datum.algebra.vars()
        rewrite = affine._rewrite_in_model
        monkeypatch.setattr(
            affine, "_rewrite_in_model",
            lambda poly, graph, budget: rewrite(poly, graph, budget) * ext.generator)
        with pytest.raises(TransportNotRational, match="irrational coefficient"):
            descend_morphism(datum, model, datum, model, {"x": x})


class TestDescendFromEmbeddings:
    def qi_sqrt_i_family(self):
        """V = K[x]/(x^2 - i) over K = Q(i), with Omega = Q(i)."""
        K, group = qi()
        embeddings = embeddings_into(K, K, group)
        # order: e0 has some image; identify which index is the identity
        ident_idx = next(
            k for k, e in enumerate(embeddings) if e.image == K.generator)
        conj_idx = 1 - ident_idx
        i_elem = K.generator
        x_var = MultiPolynomial.variable(K, ("x",), "x")
        i_const = MultiPolynomial.constant(K, ("x",), i_elem)
        V = AffineAlgebra(K, ("x",), Ideal(K, ("x",), [x_var ** 2 - i_const]))
        # maps between conjugates: identity on each diagonal, x -> i*x and
        # x -> -i*x across (so that squares match the conjugated relation)
        family = {
            (ident_idx, ident_idx): {"x": x_var},
            (conj_idx, conj_idx): {"x": x_var},
            (conj_idx, ident_idx): {"x": i_const * x_var},
            (ident_idx, conj_idx): {"x": (-i_elem) * x_var},
        }
        return V, embeddings, group, family, ident_idx, conj_idx

    @pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (2, 4)])
    def test_orbit_equals_scanned_roots(self, p, n):
        K = finite_field(p, n)
        orbit = embeddings_into(K, K, frobenius_group(K))
        scanned = embeddings_into(K, K)
        assert [(e.name, e.image) for e in orbit] == [(e.name, e.image) for e in scanned]
        assert len(orbit) == n

    def test_trivial_extension(self):
        # K = k as a degree-1 extension: one embedding, identity family; the
        # assembled datum is canonical and the model recovers V
        from galdescent.enumeration import count_affine_points

        K = finite_field(3, 1)
        omega = finite_field(3, 2)
        group = frobenius_group(omega)
        embeddings = embeddings_into(K, omega, group)
        assert len(embeddings) == 1
        x_var = MultiPolynomial.variable(K, ("x",), "x")
        x_omega = MultiPolynomial.variable(omega, ("x",), "x")
        V = AffineAlgebra(K, ("x",),
                          Ideal(K, ("x",), [x_var ** 2 - 1]))
        model = descend_from_embeddings(V, embeddings, group,
                                        {(0, 0): {"x": x_omega}})
        v_count = count_affine_points(list(V.relations.generators), K, 1)
        m_count = count_affine_points(
            list(model.algebra0.relations.generators), GF(3),
            len(model.algebra0.variables))
        assert v_count == m_count == 2

    def test_sqrt_i_descends_to_dimension_two_model(self):
        V, embeddings, group, family, ident_idx, conj_idx = self.qi_sqrt_i_family()
        model = descend_from_embeddings(V, embeddings, group, family)
        names = model.algebra0.variables
        T10, T11 = MultiPolynomial.ring_vars(QQ, names)
        # hand derivation: with the identity embedding first the invariants
        # are both (1 + i)x whose square is 2i * i = -2; with the conjugate
        # first they are (1 - i)x and (i - 1)x, square again -2.  Either way
        # the model is the square-root-of-minus-two field.
        sign = -1 if embeddings[0].image == V.field.generator else 1
        expected = Ideal(QQ, names, [T10 + sign * T11, T10 ** 2 + 2])
        assert ideal_equal(model.algebra0.relations, expected)
        assert splits(model, model.datum)

    def test_finite_field_family_point_count(self):
        # K = GF(9), V: x^2 = t (t is a square, so V has two K-points); the
        # compatible family is x -> t*x across the two conjugates, and the
        # hand computation shows both points are fixed, so the model must
        # have exactly two rational points
        from galdescent.enumeration import count_affine_points

        K = finite_field(3, 2)
        group = frobenius_group(K)
        embeddings = embeddings_into(K, K, group)
        ident_idx = next(k for k, e in enumerate(embeddings)
                         if e.image == K.generator)
        frob_idx = 1 - ident_idx
        t_elem = K.generator
        x_var = MultiPolynomial.variable(K, ("x",), "x")
        t_const = MultiPolynomial.constant(K, ("x",), t_elem)
        V = AffineAlgebra(K, ("x",), Ideal(K, ("x",), [x_var ** 2 - t_const]))
        family = {
            (ident_idx, ident_idx): {"x": x_var},
            (frob_idx, frob_idx): {"x": x_var},
            (frob_idx, ident_idx): {"x": t_const * x_var},
            (ident_idx, frob_idx): {"x": (t_elem * 2) * x_var},
        }
        model = descend_from_embeddings(V, embeddings, group, family)
        count = count_affine_points(
            list(model.algebra0.relations.generators), GF(3),
            len(model.algebra0.variables))
        assert count == 2

    def test_condition_a_violation_detected(self):
        V, embeddings, group, family, ident_idx, conj_idx = self.qi_sqrt_i_family()
        x_var = MultiPolynomial.variable(V.field, ("x",), "x")
        bad = dict(family)
        bad[(conj_idx, ident_idx)] = {"x": (-V.field.generator) * x_var}
        with pytest.raises(ConditionAViolated, match=r"\(0, 1, 0\)"):
            descend_from_embeddings(V, embeddings, group, bad)


class TestStepCounts:
    """Groebner steps each library descent spends on the Q(i) fixtures above;
    the selection rules of the engine fix these counts."""

    def spent(self, run):
        budget = Budget()
        run(budget)
        return budget.spent

    def test_validate_datum(self):
        ext, group = qi()
        assert self.spent(lambda b: validate_datum(swap_datum(ext, group), b)) == 2

    def test_splits(self):
        ext, group = qi()
        model = descend_algebra(swap_datum(ext, group))
        assert self.spent(lambda b: splits(model, swap_datum(ext, group), b)) == 26

    def test_descend_ideal_line(self):
        ext, group = qi()
        plane = AffineAlgebra(QQ, ("x", "y"))
        x, y = MultiPolynomial.ring_vars(ext, ("x", "y"))
        W = Ideal(ext, ("x", "y"), [x - y])
        assert self.spent(lambda b: descend_ideal(plane, group, W, b)) == 3

    def test_descend_morphism(self):
        ext, group = qi()
        datum_a = swap_datum(ext, group)
        model_a = descend_algebra(datum_a)
        datum_b = canonical_datum(AffineAlgebra(QQ, ("z",)), group)
        model_b = descend_algebra(datum_b)
        x, y = datum_a.algebra.vars()
        assert self.spent(lambda b: descend_morphism(
            datum_a, model_a, datum_b, model_b, {"z": x + y}, b)) == 19

    def test_descend_from_embeddings(self):
        V, embeddings, group, family, _, _ = \
            TestDescendFromEmbeddings().qi_sqrt_i_family()
        assert self.spent(lambda b: descend_from_embeddings(
            V, embeddings, group, family, b)) == 18
