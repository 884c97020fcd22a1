import gc
import time
import weakref
from itertools import product

import pytest

from galdescent.affine import (
    AffineAlgebra,
    AffineDescentDatum,
    SemilinearAlgebraMap,
    derive_point_action,
)
from galdescent.enumeration import (
    SmallFieldTables,
    algebra_points,
    count_affine_points,
    count_fixed_vectors,
    solutions,
    tuples,
)
from galdescent.errors import Budget, BudgetExceeded
from galdescent.extension import ExtensionField, finite_field
from galdescent.flat import FiniteAlgebra
from galdescent.fields import GF
from galdescent.galois import frobenius_group
from galdescent.groebner import Ideal
from galdescent.linalg import Matrix
from galdescent.multipoly import MultiPolynomial
from galdescent.semilinear import SemilinearModule
from galdescent.unipoly import UniPoly

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a test extra: the pinned scan cases still run without it
    given = None


def gf9_with_modulus(*coeffs):
    return finite_field(3, 2, UniPoly.from_ints(GF(3), list(coeffs)))


FIELDS = {
    "GF(2)": lambda: GF(2),
    "GF(13)": lambda: GF(13),
    "GF(2^3)": lambda: finite_field(2, 3),
    "GF(17^2)": lambda: finite_field(17, 2),
    # t has order 4, so the search for an element of order 8 goes past it
    "GF(3^2) t^2+1": lambda: gf9_with_modulus(1, 0, 1),
    "GF(3^2) t^2+2t+2": lambda: gf9_with_modulus(2, 2, 1),
}


class TestTables:
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_tables_match_field_arithmetic(self, name):
        field = FIELDS[name]()
        tables = SmallFieldTables(field)
        elements = list(field.elements())
        assert tables.elements == elements
        assert tables.q == len(elements) == field.order
        for i, a in enumerate(elements):
            assert tables.encode(a) == i
            for j, b in enumerate(elements):
                assert elements[tables.mul[i][j]] == a * b
                assert elements[tables.add[i][j]] == a + b

    def test_default_gf9_modulus_is_t2_plus_1(self):
        assert finite_field(3, 2).modulus == UniPoly.from_ints(GF(3), [1, 0, 1])

    def test_build_makes_linearly_many_field_products(self, monkeypatch):
        calls = []
        original = ExtensionField._mul

        def counting(self, a, b):
            calls.append(1)
            return original(self, a, b)

        field = finite_field(17, 2)
        monkeypatch.setattr(ExtensionField, "_mul", counting)
        tables = SmallFieldTables(field)
        assert len(calls) <= 4 * tables.q

    def test_elements_order_pinned(self):
        F9 = finite_field(3, 2)
        coords = [tuple(c.value for c in e.value) for e in F9.elements()]
        assert coords == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1),
                          (0, 2), (1, 2), (2, 2)]
        algebra = FiniteAlgebra.from_extension(finite_field(2, 2))
        coords = [tuple(c.value for c in e) for e in algebra.elements()]
        assert coords == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_elements_order_pinned_gf8_and_product(self):
        eight = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
                 (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        F8 = finite_field(2, 3)
        assert [tuple(c.value for c in e.value) for e in F8.elements()] == eight
        product = FiniteAlgebra.product([FiniteAlgebra.base(GF(2)),
                                         FiniteAlgebra.from_extension(finite_field(2, 2))])
        assert [tuple(c.value for c in e) for e in product.elements()] == eight


class TestBudget:
    def test_candidates_checked_before_tables(self, monkeypatch):
        def refuse(self, field):
            raise AssertionError("tables built before the budget check")

        field = finite_field(211, 2)
        x, = MultiPolynomial.ring_vars(field, ("x",))
        monkeypatch.setattr(SmallFieldTables, "__init__", refuse)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="44521 candidate points"):
            count_affine_points([x - 1], field, 1, budget=Budget(points=10000))
        assert time.perf_counter() - start < 1.0

    def test_algebra_points_checked_before_elements(self, monkeypatch):
        def refuse(self):
            raise AssertionError("elements listed before the budget check")

        algebra = FiniteAlgebra.from_extension(finite_field(3, 2))
        x, = MultiPolynomial.ring_vars(GF(3), ("x",))
        monkeypatch.setattr(FiniteAlgebra, "elements", refuse)
        with pytest.raises(BudgetExceeded, match="729 candidate points"):
            algebra_points([x], algebra, 3, embed=None, budget=Budget(points=700))

    def test_table_size_checked(self):
        field = GF(101)
        x, = MultiPolynomial.ring_vars(field, ("x",))
        with pytest.raises(BudgetExceeded, match="10201 field table entries"):
            count_affine_points([x - 1], field, 1, budget=Budget(points=5000))
        assert count_affine_points([x - 1], field, 1, budget=Budget(points=10201)) == 1

    def test_fixed_and_point_action_checked(self, monkeypatch):
        def refuse(self, field):
            raise AssertionError("tables built before the budget check")

        F9 = finite_field(3, 2)
        group = frobenius_group(F9)
        module = SemilinearModule.trivial(group, 3)
        monkeypatch.setattr(SmallFieldTables, "__init__", refuse)
        with pytest.raises(BudgetExceeded):
            count_fixed_vectors(module, budget=Budget(points=700))
        with pytest.raises(BudgetExceeded):
            derive_point_action(swap_datum(F9, group), budget=Budget(points=80))


class TestFixedVectors:
    @staticmethod
    def brute_force(module):
        elems = list(module.group.ext.elements())
        return sum(1 for a in elems for b in elems
                   if all(module.act(idx, (a, b)) == (a, b)
                          for idx in range(module.group.order)))

    @pytest.mark.parametrize("c_frob", [
        # a cocycle: the coordinate swap
        lambda F, t: [[F.zero, F.one], [F.one, F.zero]],
        # not a cocycle; the count is still defined
        lambda F, t: [[t, F.zero], [F.one, t + 1]],
    ])
    def test_count_matches_module_act(self, c_frob):
        F9 = finite_field(3, 2)
        group = frobenius_group(F9)
        frob = Matrix(F9, c_frob(F9, F9.generator))
        cocycle = [Matrix.identity(F9, 2) if i == group.identity_index else frob
                   for i in range(group.order)]
        module = SemilinearModule(group, 2, cocycle)
        assert count_fixed_vectors(module) == self.brute_force(module)

    def test_swap_count_is_q_squared(self):
        F9 = finite_field(3, 2)
        group = frobenius_group(F9)
        swap = Matrix(F9, [[F9.zero, F9.one], [F9.one, F9.zero]])
        module = SemilinearModule(group, 2, [Matrix.identity(F9, 2), swap])
        assert count_fixed_vectors(module) == 9


def swap_datum(ext, group):
    x, y = MultiPolynomial.ring_vars(ext, ("x", "y"))
    algebra = AffineAlgebra(ext, ("x", "y"), Ideal(ext, ("x", "y"), [x * y - 1]))
    images = {"id": {"x": x, "y": y}, "frob": {"x": y, "y": x}}
    return AffineDescentDatum(algebra, group, [
        SemilinearAlgebraMap(sigma, images[sigma.name]) for sigma in group.elements])


def cyclic_datum(ext, group):
    x, y, z = MultiPolynomial.ring_vars(ext, ("x", "y", "z"))
    algebra = AffineAlgebra(ext, ("x", "y", "z"),
                            Ideal(ext, ("x", "y", "z"), [x * y * z - 1]))
    images = {"id": {"x": x, "y": y, "z": z},
              "frob": {"x": y, "y": z, "z": x},
              "frob2": {"x": z, "y": x, "z": y}}
    return AffineDescentDatum(algebra, group, [
        SemilinearAlgebraMap(sigma, images[sigma.name]) for sigma in group.elements])


class TestPointAction:
    @pytest.mark.parametrize("p, n, make", [(3, 2, swap_datum), (3, 3, cyclic_datum)])
    def test_permutations_match_elementwise(self, p, n, make):
        ext = finite_field(p, n)
        group = frobenius_group(ext)
        datum = make(ext, group)
        action = derive_point_action(datum)
        index = {point: i for i, point in enumerate(action.points)}
        variables = datum.algebra.variables
        for idx, sigma in enumerate(group.elements):
            inv_images = [datum.maps[group.inverse[idx]].images[name] for name in variables]
            expected = [index[tuple(sigma(poly.evaluate(point)) for poly in inv_images)]
                        for point in action.points]
            assert action.permutations[idx] == expected
        assert all(point[0].field is ext for point in action.points)


def odometer(generators, field, nvars):
    """The scan that :func:`solutions` prunes: every generator evaluated in
    full at every tuple, in :func:`tuples` order."""
    tables = SmallFieldTables(field)
    evaluators = [tables.compile_poly(g) for g in generators if not g.is_zero]
    return [point for point in tuples(tables.ints, nvars)
            if all(ev(point) == tables.zero for ev in evaluators)]


class TestPrunedScan:
    def test_xyz_minus_one_over_gf27(self):
        field = finite_field(3, 3)
        x, y, z = MultiPolynomial.ring_vars(field, ("x", "y", "z"))
        hits, tables = solutions([x * y * z - 1], field, 3)
        assert len(hits) == (field.order - 1) ** 2 == 676
        assert hits == odometer([x * y * z - 1], field, 3)
        assert tables.q == 27

    def test_no_generators_gives_every_tuple(self):
        field = finite_field(2, 2)
        zero = MultiPolynomial.zero(field, ("x", "y", "z"))
        assert solutions([], field, 3)[0] == list(tuples(range(4), 3))
        assert solutions([zero], field, 3)[0] == list(tuples(range(4), 3))

    def test_nonzero_constant_gives_no_hits(self):
        field = GF(5)
        names = ("x", "y")
        x, y = MultiPolynomial.ring_vars(field, names)
        constant = MultiPolynomial.constant(field, names, 3)
        assert solutions([x * y - 1, constant], field, 2)[0] == []
        assert solutions([constant], field, 0)[0] == []
        assert solutions([], field, 0)[0] == [()]

    def test_scan_leaves_no_reference_cycle(self):
        field = finite_field(3, 2)
        x, y, z = MultiPolynomial.ring_vars(field, ("x", "y", "z"))
        enabled = gc.isenabled()
        gc.disable()
        try:
            hits, tables = solutions([x * y * z - 1, x - y], field, 3)
            alive = weakref.ref(tables)
            del hits, tables
            assert alive() is None
        finally:
            if enabled:
                gc.enable()


if given is not None:
    SCAN_FIELDS = [GF(2), GF(3), finite_field(2, 2), GF(5), GF(7),
                   finite_field(2, 3), finite_field(3, 2)]

    @st.composite
    def systems(draw):
        """(field, number of variables, generators): up to three generators
        of degree at most 3 in at most four variables, with coefficients
        drawn from every field element, zero included, so that zero and
        constant generators and ones that miss variables all occur."""
        field = draw(st.sampled_from(SCAN_FIELDS))
        nvars = draw(st.integers(0, 4))
        names = ("x", "y", "z", "w")[:nvars]
        monomial = st.sampled_from([e for e in product(range(4), repeat=nvars)
                                    if sum(e) <= 3])
        coefficient = st.sampled_from(list(field.elements()))
        terms = st.dictionaries(monomial, coefficient, max_size=3)
        gens = [MultiPolynomial(field, names, t)
                for t in draw(st.lists(terms, max_size=3))]
        return field, nvars, gens

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(systems())
    def test_pruned_scan_matches_odometer(system):
        field, nvars, gens = system
        assert solutions(gens, field, nvars)[0] == odometer(gens, field, nvars)
