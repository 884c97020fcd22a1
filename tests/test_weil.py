import random
from fractions import Fraction

import pytest

from algebra_reference import (
    VectorAlgebra,
    dual_numbers,
    expanded_components,
    verify_universal_points,
)
from galdescent.affine import AffineAlgebra
from galdescent.enumeration import count_affine_points
from galdescent.errors import Budget, BudgetExceeded, FieldMismatch, MismatchFound, NotSeparable
from galdescent.extension import finite_field
from galdescent.fields import GF, QQ
from galdescent.flat import FiniteAlgebra
from galdescent.galois import cyclotomic_field, cyclotomic_group, frobenius_group
from galdescent.groebner import Ideal, ideal_equal
from galdescent.linalg import Matrix
from galdescent.multipoly import MultiPolynomial
from galdescent.weil import (
    RestrictionResult,
    SeparableExtensionData,
    certify_restriction,
    conjugate_product_check,
    etale_splitting,
    weil_restrict,
)


def gm(field):
    x, y = MultiPolynomial.ring_vars(field, ("x", "y"))
    return AffineAlgebra(field, ("x", "y"), Ideal(field, ("x", "y"), [x * y - 1]))


def line(field):
    return AffineAlgebra(field, ("x",))


def ff_data(p, n):
    K = finite_field(p, n)
    return K, SeparableExtensionData.discover(K, K, frobenius_group(K))


class TestWeilRestrict:
    def test_line_over_f4(self):
        K, data = ff_data(2, 2)
        result = weil_restrict(line(K))
        assert result.restricted.variables == ("x_0", "x_1")
        assert not result.restricted.relations.generators
        assert count_affine_points([], GF(2), 2) == 4

    def test_gm_over_f4_point_identity(self):
        K, data = ff_data(2, 2)
        result = weil_restrict(gm(K))
        assert len(result.restricted.relations.generators) == 2
        restricted_count = count_affine_points(
            list(result.restricted.relations.generators), GF(2), 4)
        source_count = count_affine_points(
            list(gm(K).relations.generators), K, 2)
        assert restricted_count == source_count == 3

    def test_sqrt_i_hand_expansion(self):
        Qi, _ = cyclotomic_group(4)
        (x,) = MultiPolynomial.ring_vars(Qi, ("x",))
        i = MultiPolynomial.constant(Qi, ("x",), Qi.generator)
        V = AffineAlgebra(Qi, ("x",), Ideal(Qi, ("x",), [x * x - i]))
        result = weil_restrict(V)
        names = result.restricted.variables
        Y0, Y1 = MultiPolynomial.ring_vars(QQ, names)
        # (Y0 + i Y1)^2 - i = (Y0^2 - Y1^2) + (2 Y0 Y1 - 1) i
        expected = Ideal(QQ, names, [Y0 * Y0 - Y1 * Y1, 2 * Y0 * Y1 - 1])
        assert ideal_equal(result.restricted.relations, expected)

    @pytest.mark.parametrize("points, fits", [(21, True), (20, False)])
    def test_expansion_bounded_before_substituting(self, points, fits, monkeypatch):
        # over Cyclo(5), d = 4: x^2 and y^2 expand to at most C(5, 2) = 10
        # monomials each, and the constant to 1
        data = cyclo_data(5)
        circle = sources(data.K)[2]
        budget = Budget(points=points)
        if fits:
            weil_restrict(circle, budget)
            assert budget.spent == 0
            return

        def refuse(*args):
            raise AssertionError("expanded before the budget check")

        monkeypatch.setattr(MultiPolynomial, "transform", refuse)
        with pytest.raises(BudgetExceeded, match="^coordinate expansion of up to 21 monomials "
                                                 "exceeds budget 20$"):
            weil_restrict(circle, budget)

    @pytest.mark.parametrize("field", [QQ, GF(5)])
    def test_only_extension_fields_restrict(self, field):
        with pytest.raises(FieldMismatch, match="^only a scheme over an extension field"):
            weil_restrict(gm(field))

    def test_conjugates_need_the_source_field(self):
        result = weil_restrict(gm(finite_field(2, 2)))
        _, data = ff_data(3, 2)
        with pytest.raises(FieldMismatch, match="^scheme is not over the extension"):
            conjugate_product_check(result, data)

    def test_dimension_bookkeeping(self):
        K, data = ff_data(3, 2)
        x, y = MultiPolynomial.ring_vars(K, ("x", "y"))
        t = MultiPolynomial.constant(K, ("x", "y"), K.generator)
        V = AffineAlgebra(K, ("x", "y"), Ideal(
            K, ("x", "y"), [x * x + y - t, x * y - 1]))
        result = weil_restrict(V)
        assert len(result.restricted.variables) == 2 * 2
        # before reduction each relation contributes exactly d components
        assert len(result.raw_components) == 2 * 2
        assert len(result.restricted.relations.generators) == 4


class TestPointIdentities:
    CASES = ((2, 2), (3, 2), (2, 3), (5, 2))

    def curve(self, K):
        x, y = MultiPolynomial.ring_vars(K, ("x", "y"))
        return AffineAlgebra(K, ("x", "y"),
                             Ideal(K, ("x", "y"), [y * y - x ** 3 - 1]))

    def test_restriction_point_identity(self):
        for q, d in self.CASES:
            K = finite_field(q, d)
            for V in (line(K), gm(K), self.curve(K)):
                result = weil_restrict(V)
                restricted_count = count_affine_points(
                    list(result.restricted.relations.generators),
                    GF(q), len(result.restricted.variables))
                source_count = count_affine_points(
                    list(V.relations.generators), K, len(V.variables))
                assert restricted_count == source_count

    def test_conjugate_product_counts(self):
        for q, d in self.CASES:
            K = finite_field(q, d)
            data = SeparableExtensionData.discover(K, K, frobenius_group(K))
            for V in (line(K), gm(K), self.curve(K)):
                result = weil_restrict(V)
                report = conjugate_product_check(result, data, budget=Budget(points=5_000_000))
                counts = report.conjugate_counts
                assert len(set(counts)) == 1  # conjugates have equal counts
                assert report.restricted_count == counts[0] ** d

    def test_identical_conjugates_counted_once(self, monkeypatch):
        # the circle has base-field coefficients, so both embeddings of
        # GF(25) give one system: it is scanned once and its count reused;
        # gm over GF(25) twisted by t has two distinct conjugates
        import galdescent.weil as weil

        scanned = []

        def recorded(generators, field, nvars, budget=None):
            scanned.append(tuple(generators))
            return count_affine_points(generators, field, nvars, budget)

        monkeypatch.setattr(weil, "count_affine_points", recorded)
        K, data = ff_data(5, 2)
        x, y = MultiPolynomial.ring_vars(K, ("x", "y"))
        t = MultiPolynomial.constant(K, ("x", "y"), K.generator)
        for relation, systems in ((x * x + y * y - 1, 1), (x * y - t, 2)):
            V = AffineAlgebra(K, ("x", "y"), Ideal(K, ("x", "y"), [relation]))
            scanned.clear()
            report = conjugate_product_check(weil_restrict(V), data)
            conjugates = scanned[1:]
            assert len(conjugates) == len(set(conjugates)) == systems
            assert len(report.conjugate_counts) == 2
            assert report.restricted_count == report.conjugate_counts[0] ** 2

    def test_product_scheme_functoriality(self):
        # restriction of a product has the product of the point counts
        K = finite_field(2, 2)
        x, y, u, v = MultiPolynomial.ring_vars(K, ("x", "y", "u", "v"))
        product = AffineAlgebra(
            K, ("x", "y", "u", "v"),
            Ideal(K, ("x", "y", "u", "v"), [x * y - 1, u ** 2 - v]))
        factor1 = gm(K)
        u2, v2 = MultiPolynomial.ring_vars(K, ("u", "v"))
        factor2 = AffineAlgebra(K, ("u", "v"),
                                Ideal(K, ("u", "v"), [u2 ** 2 - v2]))
        r_prod = weil_restrict(product)
        r1 = weil_restrict(factor1)
        r2 = weil_restrict(factor2)

        def count(result):
            return count_affine_points(
                list(result.restricted.relations.generators), GF(2),
                len(result.restricted.variables))

        assert count(r_prod) == count(r1) * count(r2)


class TestUniversalProperty:
    def test_gm_f4_over_f2(self):
        K, data = ff_data(2, 2)
        result = weil_restrict(gm(K))
        base_algebra = VectorAlgebra.base(GF(2))
        report = verify_universal_points(result, base_algebra)
        assert report.mode == "exhaustive"
        assert report.restricted_count == report.source_count == 3

    def test_gm_f4_valued_in_f4(self):
        K, data = ff_data(2, 2)
        result = weil_restrict(gm(K))
        test_algebra = VectorAlgebra.from_extension(K)
        report = verify_universal_points(result, test_algebra)
        # Gm(F4 x F4) has 3 * 3 = 9 points
        assert report.restricted_count == report.source_count == 9

    def test_gm_f4_valued_in_product(self):
        K, data = ff_data(2, 2)
        result = weil_restrict(gm(K))
        base = FiniteAlgebra.base(GF(2))
        product = VectorAlgebra.product([base, base])
        report = verify_universal_points(result, product)
        # points valued in F2 x F2 are pairs of F2-points: 3 * 3
        assert report.restricted_count == report.source_count == 9

    def test_empty_scheme(self):
        K, data = ff_data(2, 2)
        one = MultiPolynomial.constant(K, ("x",), 1)
        V = AffineAlgebra(K, ("x",), Ideal(K, ("x",), [one]))
        result = weil_restrict(V)
        report = verify_universal_points(result, VectorAlgebra.base(GF(2)))
        assert report.restricted_count == report.source_count == 0

    def test_rational_samples(self):
        Qi, _ = cyclotomic_group(4)
        result = weil_restrict(gm(Qi))
        base_algebra = VectorAlgebra.base(QQ)
        # x = 1 + 0i, y = 1 + 0i is a point; x = 2, y = 1 is not
        good = ((QQ.one,), (QQ.zero,), (QQ.one,), (QQ.zero,))
        bad = ((QQ.from_int(2),), (QQ.zero,), (QQ.one,), (QQ.zero,))
        report = verify_universal_points(result, base_algebra,
                                         samples=[good, bad])
        assert report.mode == "sampled"
        assert report.samples_checked == 2


def sources(K):
    """Affine K-schemes to restrict: the line, G_m, the circle, an empty
    scheme, and two with coefficients outside the base field."""
    names = ("x", "y")
    x, y = MultiPolynomial.ring_vars(K, names)
    t = K.generator

    def scheme(*relations):
        return AffineAlgebra(K, names, Ideal(K, names, list(relations)))

    return [line(K), gm(K), scheme(x * x + y * y - 1), scheme(x * 0 + 1),
            scheme(x ** 3 - t * y + t * t, t * x * y - 1), scheme(y ** 2 - x ** 3 - t)]


CERTIFIED = {
    "cyclo4": lambda: cyclo_data(4),
    "cyclo5": lambda: cyclo_data(5),
    "cyclo7": lambda: cyclo_data(7),
    "gf4": lambda: ff_data(2, 2)[1],
    "gf9": lambda: ff_data(3, 2)[1],
    "gf25": lambda: ff_data(5, 2)[1],
    "gf125": lambda: ff_data(5, 3)[1],
}


def corrupted(result, rng):
    """``result`` with one coefficient of one raw component changed by a
    nonzero base scalar, the presented ideal rebuilt from the changed
    components."""
    base = result.source.field.base
    names = result.restricted.variables
    components = list(result.raw_components)
    k = rng.randrange(len(components))
    terms = dict(components[k].terms)
    monomial = rng.choice(sorted(terms) + [tuple(rng.randrange(3) for _ in names)])
    shift = base.from_int(rng.randrange(1, 5))
    if base.is_finite and not shift:
        shift = base.one
    terms[monomial] = terms.get(monomial, base.zero) + shift
    components[k] = MultiPolynomial(base, names, terms)
    restricted = AffineAlgebra(base, names, Ideal(base, names, components))
    return RestrictionResult(result.source, restricted, result.substitution, components)


def seeded_schemes(K, seed):
    """Derandomized K-schemes in one to three variables, each with one to
    three relations of total degree at most 3, whose coefficients have
    some zero coordinates (over Q some non-integral ones)."""
    rng = random.Random(seed)

    def coefficient():
        if K.is_finite:
            coords = [rng.randrange(K.characteristic) for _ in range(K.degree)]
        else:
            coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6
                      else 0 for _ in range(K.degree)]
        return K.from_coords([K.base.from_int(c) for c in coords])

    schemes = []
    for _ in range(12):
        names = ("x", "y", "z")[:rng.randint(1, 3)]
        relations = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                exps = tuple(rng.randint(0, 3) for _ in names)
                if sum(exps) <= 3:
                    terms[exps] = coefficient()
            relations.append(MultiPolynomial(K, names, terms))
        schemes.append(AffineAlgebra(K, names, Ideal(K, names, relations)))
    return schemes


EXPANDED = {
    "Q(i)": lambda: cyclotomic_field(4),
    "Cyclo(5)": lambda: cyclotomic_field(5),
    "Cyclo(7)": lambda: cyclotomic_field(7),
    "GF(9)": lambda: finite_field(3, 2),
    "GF(5^3)": lambda: finite_field(5, 3),
}


class TestExpansion:
    """The expansion on raw values against the boxed substitution and
    splitting of ``algebra_reference``."""

    @pytest.mark.parametrize("name", sorted(EXPANDED))
    def test_components_equal_the_boxed_expansion(self, name):
        K = EXPANDED[name]()
        for V in seeded_schemes(K, name) + sources(K):
            result = weil_restrict(V)
            substitution, components = expanded_components(V)
            assert result.raw_components == components
            assert result.substitution == substitution
            assert result.restricted.relations.generators == tuple(
                g for g in components if not g.is_zero)
            certify_restriction(result)

    def test_makes_no_product_of_polynomials(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the expansion multiplies polynomials")

        V = sources(cyclo_data(5).K)[4]
        monkeypatch.setattr(MultiPolynomial, "__mul__", refuse)
        monkeypatch.setattr(MultiPolynomial, "transform", refuse)
        assert len(weil_restrict(V).raw_components) == 2 * 4


class TestCertifyRestriction:
    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_certifies_every_restriction(self, name):
        data = CERTIFIED[name]()
        for V in sources(data.K):
            assert certify_restriction(weil_restrict(V)) is None

    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_rejects_every_single_coefficient_corruption(self, name):
        data = CERTIFIED[name]()
        rng = random.Random(name)
        for V in sources(data.K):
            if not V.relations.generators:
                continue
            result = weil_restrict(V)
            for _ in range(6):
                with pytest.raises(MismatchFound, match=r"is not the sum of its components$"):
                    certify_restriction(corrupted(result, rng))

    def test_rejects_a_presentation_without_its_components(self):
        data = cyclo_data(5)
        result = weil_restrict(sources(data.K)[2])
        R = result.restricted
        for generators in (R.relations.generators[1:], R.relations.generators[::-1],
                           R.relations.generators + R.relations.generators[:1]):
            wrong = AffineAlgebra(R.field, R.variables, Ideal(R.field, R.variables, generators))
            with pytest.raises(MismatchFound, match="not generated by the nonzero components"):
                certify_restriction(RestrictionResult(
                    result.source, wrong, result.substitution, result.raw_components))
        over_k = [g.map_coeffs(data.K.from_base, data.K) for g in result.raw_components]
        with pytest.raises(MismatchFound, match="not generated by the nonzero components"):
            certify_restriction(RestrictionResult(
                result.source, R, result.substitution, over_k))

    def test_shares_no_code_with_the_substitution(self, monkeypatch):
        data = cyclo_data(7)
        result = weil_restrict(sources(data.K)[4])

        def refuse(*args):
            raise AssertionError("the certificate substitutes")

        monkeypatch.setattr(MultiPolynomial, "transform", refuse)
        monkeypatch.setattr(MultiPolynomial, "substitute", refuse)
        certify_restriction(result)

    # test algebras k, k[eps]/(eps^2) and k x k, each small enough that the
    # reference lists R(A) and V(K (x) A) in full
    REFERENCE = {"gf4": (lambda: ff_data(2, 2)[1], (1, 2)),
                 "gf8": (lambda: ff_data(2, 3)[1], (1,)),
                 "gf9": (lambda: ff_data(3, 2)[1], (1,))}

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_rejects_what_the_point_reference_rejects(self, name):
        make, arities = self.REFERENCE[name]
        data = make()
        K, k = data.K, data.K.base
        base = VectorAlgebra.base(k)
        algebras = [base, dual_numbers(k), VectorAlgebra.product([base, base])]
        (x,) = MultiPolynomial.ring_vars(K, ("x",))
        schemes = [AffineAlgebra(K, ("x",), Ideal(K, ("x",), [x ** 2 + K.generator * x + 1]))]
        if 2 in arities:
            schemes.append(gm(K))
        rng = random.Random(name)
        rejected = 0
        for V in schemes:
            result = weil_restrict(V)
            for A in algebras:
                verify_universal_points(result, A)
            for _ in range(4):
                wrong = corrupted(result, rng)
                with pytest.raises(MismatchFound):
                    certify_restriction(wrong)
                for A in algebras:
                    try:
                        verify_universal_points(wrong, A)
                    except MismatchFound:
                        rejected += 1
        # the certificate rejects every corruption, so in particular each
        # one that the reference rejects; the reference rejects some
        assert rejected


def tensor_lagrange_idempotents(data):
    """The Lagrange idempotents of K (x) Omega computed in the tensor algebra,
    the reference for ``etale_splitting``: e_tau is the product, over the
    other embeddings s, of (t (x) 1 - 1 (x) s(t)) (1 (x) (tau(t) - s(t))^-1).
    Returns the tensor algebra and the idempotents in embedding order."""
    K, omega = data.K, data.omega
    tensor = VectorAlgebra.tensor(FiniteAlgebra.from_extension(K),
                                  FiniteAlgebra.from_extension(omega))
    gen_left = tensor.embed_left(K.coords(K.generator))
    idempotents = []
    for tau in data.embeddings:
        e = tensor.unit
        for other in data.embeddings:
            if other is tau:
                continue
            factor = tensor.add(
                gen_left,
                tensor.scale(-omega.base.one,
                             tensor.embed_right(omega.coords(other.image))))
            scaled = tensor.embed_right(
                omega.coords((tau.image - other.image).inverse()))
            e = tensor.mul(e, tensor.mul(factor, scaled))
        idempotents.append(e)
    return tensor, idempotents


def cyclo_data(m):
    ext, group = cyclotomic_group(m)
    return SeparableExtensionData.discover(ext, ext, group)


def into_data(p, d, n):
    """GF(p^d) with its embeddings into GF(p^n), found by scanning."""
    return SeparableExtensionData.discover(finite_field(p, d), finite_field(p, n))


SPLITTING_CASES = {
    "cyclo3": lambda: cyclo_data(3),
    "cyclo4": lambda: cyclo_data(4),
    "cyclo5": lambda: cyclo_data(5),
    "cyclo8": lambda: cyclo_data(8),
    "cyclo12": lambda: cyclo_data(12),
    "gf2": lambda: ff_data(2, 1)[1],
    "gf4": lambda: ff_data(2, 2)[1],
    "gf125": lambda: ff_data(5, 3)[1],
    "gf81": lambda: ff_data(3, 4)[1],
    "gf4_in_gf16": lambda: into_data(2, 2, 4),
    "gf9_in_gf81": lambda: into_data(3, 2, 4),
}


class TestEtaleSplitting:
    @pytest.mark.parametrize("name", sorted(SPLITTING_CASES))
    def test_matches_tensor_reference(self, name):
        data = SPLITTING_CASES[name]()
        _, expected = tensor_lagrange_idempotents(data)
        assert etale_splitting(data) == expected

    @pytest.mark.parametrize(
        "name", ["cyclo3", "cyclo4", "cyclo5", "gf4", "gf125", "gf4_in_gf16"])
    def test_idempotents_split_the_tensor_algebra(self, name):
        data = SPLITTING_CASES[name]()
        tensor, _ = tensor_lagrange_idempotents(data)
        idempotents = etale_splitting(data)
        assert len(idempotents) == data.degree
        total = tensor.zero_vector()
        for i, e in enumerate(idempotents):
            assert tensor.mul(e, e) == e
            for other in idempotents[i + 1:]:
                assert not any(tensor.mul(e, other))
            assert tensor.mult_matrix(e).rank() == data.omega.degree
            total = tensor.add(total, e)
        assert total == tensor.unit

    def test_builds_no_algebra_and_computes_no_rank(self, monkeypatch):
        data = cyclo_data(5)
        calls = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return wrapper

        # every FiniteAlgebra verifies itself when it is built
        monkeypatch.setattr(FiniteAlgebra, "tensor",
                            staticmethod(counted("tensor", FiniteAlgebra.tensor)))
        monkeypatch.setattr(FiniteAlgebra, "verify",
                            counted("verify", FiniteAlgebra.verify))
        monkeypatch.setattr(Matrix, "rank", counted("rank", Matrix.rank))
        etale_splitting(data)
        assert calls == []

    def test_qi_two_idempotents(self):
        Qi, group = cyclotomic_group(4)
        data = SeparableExtensionData.discover(Qi, Qi, group)
        idempotents = etale_splitting(data)
        assert len(idempotents) == 2

    def test_f4_two_idempotents(self):
        K, data = ff_data(2, 2)
        idempotents = etale_splitting(data)
        assert len(idempotents) == 2

    def test_degree_one_single_idempotent(self):
        K, data = ff_data(3, 1)
        (e,) = etale_splitting(data)
        # the unique idempotent is 1
        T = FiniteAlgebra.tensor(FiniteAlgebra.from_extension(K),
                                 FiniteAlgebra.from_extension(K))
        assert e == T.unit

    def test_cyclotomic_degree_four(self):
        ext, group = cyclotomic_group(5)
        data = SeparableExtensionData.discover(ext, ext, group)
        idempotents = etale_splitting(data)
        assert len(idempotents) == 4


class TestNormCompat:
    def test_restriction_contains_norm_torus(self):
        # points of the restricted Gm with norm 1 number q + 1
        for q in (3, 5):
            K = finite_field(q, 2)
            result = weil_restrict(gm(K))
            base = GF(q)
            names = result.restricted.variables
            gens = list(result.restricted.relations.generators)
            # norm of x = x_0 + t x_1: x * frob(x); expand via the
            # substitution and keep the component along 1
            frob = frobenius_group(K).elements[1]
            x_sub = result.substitution["x"]
            norm_poly = x_sub * x_sub.map_coeffs(frob)
            buckets = {}
            for exps, coeff in norm_poly.terms.items():
                for j, c in enumerate(K.coords(coeff)):
                    if c:
                        buckets.setdefault(j, {})[exps] = c
            assert sorted(buckets) == [0]  # the norm is rational
            norm_component = MultiPolynomial(base, names, buckets[0])
            one = MultiPolynomial.constant(base, names, 1)
            count = count_affine_points(gens + [norm_component - one],
                                        base, len(names))
            assert count == q + 1

    def test_not_separable_rejected(self):
        # a squarefree modulus is required by construction; fabricate the
        # failure through duplicate embeddings instead
        K = finite_field(2, 2)
        group = frobenius_group(K)
        from galdescent.affine import Embedding

        e = Embedding(K, K, K.generator, "e0")
        with pytest.raises(NotSeparable):
            SeparableExtensionData(K, K, [e, e])
