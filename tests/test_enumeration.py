import gc
import time
import weakref
from itertools import product

import pytest

from galdescent import enumeration
from galdescent.affine import (
    AffineAlgebra,
    AffineDescentDatum,
    SemilinearAlgebraMap,
    derive_point_action,
    validate_datum,
)
from galdescent.enumeration import (
    SmallFieldTables,
    count_affine_points,
    count_fixed_vectors,
    solutions,
    tuples,
)
from galdescent.errors import Budget, BudgetExceeded, InternalContradiction
from galdescent.extension import ExtensionField, finite_field
from galdescent.fields import GF
from galdescent.galois import GaloisGroup, GeneratorMap, frobenius_group
from galdescent.groebner import Ideal
from galdescent.linalg import Matrix
from galdescent.multipoly import MultiPolynomial
from galdescent.semilinear import SemilinearModule
from galdescent.unipoly import UniPoly
from galdescent.weil import weil_restrict
from algebra_reference import VectorAlgebra, algebra_points
from helpers import coboundary_module

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
        assert list(tables.decode(tables.ints)) == elements
        assert tables.q == len(elements) == field.order
        for i, a in enumerate(elements):
            assert tables.encode(a) == i
            for j, b in enumerate(elements):
                assert elements[tables.mul[i][j]] == a * b
                assert elements[tables.add[i][j]] == a + b

    def test_default_gf9_modulus_is_t2_plus_1(self):
        assert finite_field(3, 2).modulus == UniPoly.from_ints(GF(3), [1, 0, 1])

    def test_build_makes_no_field_products(self, monkeypatch):
        # the primitive element is found by powering coordinate ints
        calls = []
        original = ExtensionField._mul

        def counting(self, a, b):
            calls.append(1)
            return original(self, a, b)

        field = finite_field(17, 2)
        monkeypatch.setattr(ExtensionField, "_mul", counting)
        SmallFieldTables(field)
        assert calls == []

    @pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (3, 3), (17, 2)])
    def test_antilog_powers_the_first_primitive_element(self, p, n):
        # the reference powers field elements one product at a time
        field = finite_field(p, n)
        tables = SmallFieldTables(field)
        q, one = field.order, field.one

        def order(a):
            k, x = 1, a
            while x != one:
                k, x = k + 1, x * a
            return k

        g = next(a for a in list(field.elements())[1:] if order(a) == q - 1)
        powers, x = [], one
        for _ in range(q - 1):
            powers.append(tables.encode(x))
            x = x * g
        assert tables.antilog == powers

    @pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4),
                                      (5, 2), (3, 3), (5, 3), (17, 2)])
    def test_permutation_matches_elementwise(self, p, n):
        field = finite_field(p, n)
        tables = SmallFieldTables(field)
        for sigma in frobenius_group(field).elements:
            assert tables.permutation(sigma) == [tables.encode(sigma(e))
                                                 for e in field.elements()]

    @pytest.mark.parametrize("make", [
        lambda x, y, t: x - x,
        lambda x, y, t: x - x + t,
        lambda x, y, t: y,
        lambda x, y, t: 2 * x ** 2 * y + t * y ** 3 + t + 1,
    ])
    def test_column_evaluation_matches_pointwise(self, make):
        field = finite_field(3, 2)
        tables = SmallFieldTables(field)
        x, y = MultiPolynomial.ring_vars(field, ("x", "y"))
        poly = make(x, y, field.generator)
        points = list(tuples(tables.ints, 2))
        columns = list(zip(*points))
        assert tables.evaluate(poly, columns, len(points)) == list(
            map(point_evaluator(poly, tables), points))

    def test_elements_order_pinned(self):
        F9 = finite_field(3, 2)
        coords = [tuple(c.value for c in F9.coords(e)) for e in F9.elements()]
        assert coords == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1),
                          (0, 2), (1, 2), (2, 2)]
        algebra = VectorAlgebra.from_extension(finite_field(2, 2))
        coords = [tuple(c.value for c in e) for e in algebra.elements()]
        assert coords == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_elements_order_pinned_gf8_and_product(self):
        eight = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
                 (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        F8 = finite_field(2, 3)
        assert [tuple(c.value for c in F8.coords(e)) for e in F8.elements()] == eight
        product = VectorAlgebra.product([VectorAlgebra.base(GF(2)),
                                         VectorAlgebra.from_extension(finite_field(2, 2))])
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

        algebra = VectorAlgebra.from_extension(finite_field(3, 2))
        x, = MultiPolynomial.ring_vars(GF(3), ("x",))
        monkeypatch.setattr(VectorAlgebra, "elements", refuse)
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


def reference_count_fixed_vectors(module, budget=None):
    """The odometer count that :func:`count_fixed_vectors` replaced: every
    v -> c_sigma * sigma(v) applied to every one of the q^n candidates, with
    sigma as a permutation of the element indices."""
    ext = module.group.ext
    if not ext.is_finite:
        raise BudgetExceeded("cannot enumerate points over an infinite field")
    q = ext.order
    (budget or Budget()).check_scan(q ** module.dim, q * q)
    tables = SmallFieldTables(ext)
    mul, add, zero = tables.mul, tables.add, tables.zero
    actions = [(tables.permutation(sigma),
                [[(j, tables.encode(a)) for j, a in enumerate(row) if a]
                 for row in c.rows])
               for sigma, c in zip(module.group.elements, module.cocycle)]

    def is_fixed(vec):
        for perm, rows in actions:
            conjugated = [perm[x] for x in vec]
            for row, x in zip(rows, vec):
                acc = zero
                for j, a in row:
                    acc = add[acc][mul[a][conjugated[j]]]
                if acc != x:
                    return False
        return True

    return sum(1 for vec in tuples(tables.ints, module.dim) if is_fixed(vec))


def outcome(function, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return function(*args, **kwargs)
    except Exception as exc:  # compared, never swallowed: see the callers
        return type(exc), str(exc)


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

    @pytest.mark.parametrize("c_frob", [
        lambda F, t: [[F.zero, F.one], [F.one, F.zero]],
        lambda F, t: [[t, F.zero], [F.one, t + 1]],
        lambda F, t: [[F.zero, F.zero], [F.zero, F.zero]],
    ])
    def test_frobenius_listed_first(self, c_frob):
        # the exponent of each element is read off its image of t, not off
        # its position in the list
        F9 = finite_field(3, 2)
        ident, frob = frobenius_group(F9).elements
        group = GaloisGroup.close_and_verify(F9, [frob, ident])
        assert group.elements[0].image == F9.generator ** 3
        module = SemilinearModule(
            group, 2, [Matrix(F9, c_frob(F9, F9.generator)), Matrix.identity(F9, 2)])
        assert count_fixed_vectors(module) == reference_count_fixed_vectors(module)

    def test_gf125_cyclic_permutation(self):
        F125 = finite_field(5, 3)
        group = frobenius_group(F125)
        one, zero = F125.one, F125.zero
        shift = Matrix(F125, [[zero, one, zero], [zero, zero, one], [one, zero, zero]])
        module = SemilinearModule(
            group, 3, [Matrix.identity(F125, 3), shift, shift * shift])
        assert count_fixed_vectors(module) == 125

    def test_huge_field_refused_before_any_product(self, monkeypatch):
        calls = []
        original = ExtensionField._mul

        def counting(self, a, b):
            calls.append(1)
            return original(self, a, b)

        module = SemilinearModule.trivial(frobenius_group(finite_field(3, 42)), 1)
        monkeypatch.setattr(ExtensionField, "_mul", counting)
        with pytest.raises(BudgetExceeded,
                           match=f"^{3 ** 42} candidate points exceed budget 2000000$"):
            count_fixed_vectors(module)
        assert calls == []


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


def affine_swap_datum(ext, group):
    """The swap datum on u*v - 1 carried to x = a*u + b, y = c*v + d by an
    affine-linear change of coordinates over the extension, so that each
    image is a sum with non-unit coefficients and a constant: theta_sigma
    sends x to sigma(a) * v + sigma(b) and y to sigma(c) * u + sigma(d)."""
    x, y = MultiPolynomial.ring_vars(ext, ("x", "y"))
    t = ext.generator
    a, b, c, d = t, ext.one, t + 1, t * t
    u, v = (x - b) * a.inverse(), (y - d) * c.inverse()
    algebra = AffineAlgebra(ext, ("x", "y"), Ideal(ext, ("x", "y"), [u * v - 1]))
    maps = []
    for sigma in group.elements:
        first, second = (u, v) if sigma.name == "id" else (v, u)
        maps.append(SemilinearAlgebraMap(sigma, {"x": sigma(a) * first + sigma(b),
                                                 "y": sigma(c) * second + sigma(d)}))
    return AffineDescentDatum(algebra, group, maps)


class TestPointAction:
    @pytest.mark.parametrize("p, n, make", [(3, 2, swap_datum), (3, 3, cyclic_datum),
                                            (3, 2, affine_swap_datum),
                                            (5, 2, affine_swap_datum)])
    def test_permutations_match_elementwise(self, p, n, make):
        ext = finite_field(p, n)
        group = frobenius_group(ext)
        datum = make(ext, group)
        validate_datum(datum)
        action = derive_point_action(datum)
        index = {point: i for i, point in enumerate(action.points)}
        variables = datum.algebra.variables
        for idx, sigma in enumerate(group.elements):
            inv_images = [datum.maps[group.inverse[idx]].images[name] for name in variables]
            expected = [index[tuple(sigma(poly.evaluate(point)) for poly in inv_images)]
                        for point in action.points]
            assert action.permutations[idx] == expected
        assert all(point[0].field is ext for point in action.points)

    def test_affine_swap_images_have_constants_and_non_unit_coefficients(self):
        for p in (3, 5):
            ext = finite_field(p, 2)
            group = frobenius_group(ext)
            frob = affine_swap_datum(ext, group).maps[1 - group.identity_index]
            for image in frob.images.values():
                assert len(image.terms) == 2
                assert all(c != ext.one for c in image.terms.values())

    def test_image_outside_the_point_set_is_refused(self):
        # x -> y + 1 sends (a, 1/a) to (sigma(1/a) + 1, sigma(a)), whose
        # coordinates multiply to 1 + sigma(a), never 1
        ext = finite_field(3, 2)
        group = frobenius_group(ext)
        datum = swap_datum(ext, group)
        other = 1 - group.identity_index
        frob = datum.maps[other]
        images = dict(frob.images, x=frob.images["x"] + 1)
        datum.maps[other] = SemilinearAlgebraMap(frob.sigma, images)
        with pytest.raises(InternalContradiction,
                           match="^action image escaped the point set; datum invalid$"):
            derive_point_action(datum)

    def test_action_breaking_the_group_law_is_refused(self):
        # theta_id = the swap keeps x*y - 1, but swapping twice is not a swap
        ext = finite_field(3, 2)
        group = frobenius_group(ext)
        datum = swap_datum(ext, group)
        identity = group.identity_index
        swap = datum.maps[1 - identity].images
        datum.maps[identity] = SemilinearAlgebraMap(group.elements[identity], swap)
        with pytest.raises(InternalContradiction,
                           match="^point action violates the group law$"):
            derive_point_action(datum)

    def test_one_automorphism_call_per_group_element(self, monkeypatch):
        calls = []
        original = GeneratorMap.__call__

        def counting(self, a):
            calls.append(1)
            return original(self, a)

        ext = finite_field(17, 2)
        group = frobenius_group(ext)
        datum = swap_datum(ext, group)
        monkeypatch.setattr(GeneratorMap, "__call__", counting)
        action = derive_point_action(datum)
        assert len(calls) == group.order == 2
        assert len(action.points) == ext.order - 1


def point_evaluator(poly, tables):
    """An evaluator of ``poly`` at one tuple of element indices at a time,
    term by term on the tables: the reference for the scan, independent of
    the column evaluator."""
    powers = tables.powers(max((e for exps in poly.terms for e in exps), default=0))
    terms = [(tables.encode(c), [(i, powers[e]) for i, e in enumerate(exps) if e])
             for exps, c in poly.terms.items()]
    mul, add, zero = tables.mul, tables.add, tables.zero

    def evaluate(point):
        total = zero
        for acc, factors in terms:
            for i, table in factors:
                acc = mul[acc][table[point[i]]]
            total = add[total][acc]
        return total
    return evaluate


def odometer(generators, field, nvars):
    """The scan that :func:`solutions` prunes: every generator evaluated in
    full at every tuple, in :func:`tuples` order."""
    tables = SmallFieldTables(field)
    evaluators = [point_evaluator(g, tables) for g in generators if not g.is_zero]
    return [point for point in tuples(tables.ints, nvars)
            if all(ev(point) == tables.zero for ev in evaluators)]


def circle(x, y):
    return x * x + y * y - 1


def xyz_minus_one(x, y, z):
    return x * y * z - 1


def count_close_nodes(monkeypatch, generators, field, nvars):
    """(hits, nodes, solved): the scan's hits, how many nodes the last two
    levels are closed below, and at how many of them the penultimate fibre
    is found, that is, the close is solved rather than copied from the
    memo.  A solve asks :func:`enumeration._fibre` for that fibre on the
    node's own sums; every later call gets a copy of them."""
    counts = {"nodes": 0, "solved": 0}
    node = []
    close, fibre = enumeration._close, enumeration._fibre

    def counting_close(point, current, closing):
        counts["nodes"] += 1
        node.append(current)
        try:
            return close(point, current, closing)
        finally:
            node.pop()

    def counting_fibre(level, sums, *rest):
        if node and sums is node[-1]:
            counts["solved"] += 1
        return fibre(level, sums, *rest)

    monkeypatch.setattr(enumeration, "_close", counting_close)
    monkeypatch.setattr(enumeration, "_fibre", counting_fibre)
    hits, _ = solutions(generators, field, nvars)
    monkeypatch.undo()
    return hits, counts["nodes"], counts["solved"]


def restriction(ext, names, relation):
    """The Weil restriction from ``ext`` to its prime field of the
    hypersurface ``relation(*variables) = 0``."""
    source = AffineAlgebra(ext, names, Ideal(
        ext, names, [relation(*MultiPolynomial.ring_vars(ext, names))]))
    return weil_restrict(source).restricted


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

    def test_circle_conjugate_product_makes_one_scan_per_memo_key(self, monkeypatch):
        # the system that the conjugate-product count of the circle
        # restricted from GF(5^2) to GF(5) scans: GF(25)^4, two generators
        # closing at the last variable
        field = finite_field(5, 2)
        restricted = restriction(field, ("x", "y"), circle)
        system = list(restricted.extend_to(field).relations.generators)
        nvars = len(restricted.variables)
        full_scans = []
        original = enumeration._roots

        def counting(coeffs, candidates, tables, powers):
            if candidates is tables.ints:
                full_scans.append(coeffs)
            return original(coeffs, candidates, tables, powers)

        monkeypatch.setattr(enumeration, "_roots", counting)
        hits, _ = solutions(system, field, nvars)
        monkeypatch.undo()
        assert len(hits) == 576
        assert hits == odometer(system, field, nvars)
        # one q-scan per distinct key of the first generator, each scanned
        # once: the memo of q keys was never cleared
        assert len(full_scans) == len(set(full_scans)) == 25

    def test_circle_conjugate_product_solves_each_close_key_once(self, monkeypatch):
        # the last two variables are closed below each of the 625 nodes of
        # GF(25)^2, whose keys repeat far more often than not (the whole
        # --oracle document, with its model scan over GF(5)^4 and two
        # scans of GF(25)^2, solves 184 of 652)
        field = finite_field(5, 2)
        restricted = restriction(field, ("x", "y"), circle)
        system = list(restricted.extend_to(field).relations.generators)
        nvars = len(restricted.variables)
        hits, nodes, solved = count_close_nodes(monkeypatch, system, field, nvars)
        assert hits == odometer(system, field, nvars)
        assert (solved, nodes) == (169, 625)

    def test_nodes_sharing_a_close_key_keep_their_own_prefix(self, monkeypatch):
        # x^2 + y + z^2 - 1 over GF(7): z is assigned first, then y and x
        # are closed below each value of z, and z and -z give one key
        field = GF(7)
        x, y, z = MultiPolynomial.ring_vars(field, ("x", "y", "z"))
        system = [x * x + y + z * z - 1]
        hits, nodes, solved = count_close_nodes(monkeypatch, system, field, 3)
        assert hits == odometer(system, field, 3)
        # z^2 takes the 4 values 0, 1, 4 and 2 at the 7 values of z
        assert (solved, nodes) == (4, 7)
        below = {c: sorted(p[:2] for p in hits if p[2] == c) for c in range(7)}
        for c in (1, 2, 3):
            assert below[c] == below[7 - c] != []

    def test_linear_generator_scans_no_field(self, monkeypatch):
        # x*y - 1 is linear in the variable it closes: each value of the
        # other one gives its root by one division
        field = finite_field(17, 2)
        x, y = MultiPolynomial.ring_vars(field, ("x", "y"))
        full_scans = []
        original = enumeration._roots

        def counting(coeffs, candidates, tables, powers):
            if candidates is tables.ints:
                full_scans.append(coeffs)
            return original(coeffs, candidates, tables, powers)

        monkeypatch.setattr(enumeration, "_roots", counting)
        hits, tables = solutions([x * y - 1], field, 2)
        assert len(hits) == field.order - 1
        assert full_scans == []
        # rows are built when first read: a handful, not q of each
        assert len(tables.mul) + len(tables.add) <= 4

    @pytest.mark.parametrize("name", ["GF(2^3)", "GF(3^2) t^2+1", "GF(13)"])
    @pytest.mark.parametrize("system", [
        # the slope x of z vanishes at x = 0, where the constant decides
        lambda x, y, z, c: [x * z],
        lambda x, y, z, c: [x * z + c],
        lambda x, y, z, c: [x * z + y],
        # a linear generator that allows every value, then one that keys
        # the memo; a quadratic, then a linear one filtering its roots; two
        # linear ones
        lambda x, y, z, c: [x * z + y, z * z - c * y],
        lambda x, y, z, c: [z * z - x, y * z + x],
        lambda x, y, z, c: [x * z - y, y * z - c * x],
    ])
    def test_linear_generators_match_odometer(self, name, system):
        field = FIELDS[name]()
        x, y, z = MultiPolynomial.ring_vars(field, ("x", "y", "z"))
        # a nonzero constant other than 1 where there is one
        c = list(field.elements())[min(2, field.order - 1)]
        gens = system(x, y, z, c)
        assert solutions(gens, field, 3)[0] == odometer(gens, field, 3)

    @pytest.mark.parametrize("p, n", [(3, 2), (2, 11)])
    def test_scan_leaves_no_reference_cycle(self, p, n):
        # a field that has made products, taken an inverse and run a scan
        # is freed, with its tables, by reference counting alone: GF(9)
        # owns its tables, GF(2^11) memoizes inverses and scans with new ones
        enabled = gc.isenabled()
        gc.disable()
        try:
            field = finite_field(p, n)
            x, y, z = MultiPolynomial.ring_vars(field, ("x", "y", "z"))
            t = field.generator
            made = [t * (t + 1), (t + 1).inverse()]
            hits, tables = solutions([x * y - t, x - y], field, 2,
                                     budget=Budget(points=field.order ** 2))
            assert made[1] * (t + 1) == field.one and hits
            alive = [weakref.ref(field), weakref.ref(tables)]
            del field, x, y, z, t, made, hits, tables
            assert [ref() for ref in alive] == [None, None]
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

    def restricted_systems():
        """(scan field, generators) pairs: the restrictions of x*y*z - 1 and
        of the circle from GF(4) to GF(2) and from GF(9) to GF(3), over the
        base field and, where GF(ext)^n has at most 9^4 points, over the
        extension.  Both generators close at the last variable, but for the
        circle in characteristic 2, where x^2 + y^2 - 1 is a square."""
        out = []
        for p in (2, 3):
            ext = finite_field(p, 2)
            for names, relation in ((("x", "y", "z"), xyz_minus_one), (("x", "y"), circle)):
                restricted = restriction(ext, names, relation)
                out.append((GF(p), list(restricted.relations.generators)))
                if ext.order ** len(restricted.variables) <= 9 ** 4:
                    out.append((ext, list(restricted.extend_to(ext).relations.generators)))
        return out

    RESTRICTED_SYSTEMS = restricted_systems()

    @st.composite
    def shifted_restrictions(draw):
        """A restricted system with each generator scaled by a nonzero
        element and shifted by a constant, so the point set varies and may
        be empty; half the time a third generator, a combination of the two
        with nonzero weights plus a constant, closes at the same variable.
        The generators come in a drawn order."""
        field, gens = draw(st.sampled_from(RESTRICTED_SYSTEMS))
        elements = list(field.elements())
        nonzero = st.sampled_from(elements[1:])
        constant = st.sampled_from(elements)
        gens = [draw(nonzero) * g + draw(constant) for g in gens]
        if draw(st.booleans()):
            gens.append(sum((draw(nonzero) * g for g in gens[1:]),
                            draw(nonzero) * gens[0] + draw(constant)))
        return field, len(gens[0].variables), draw(st.permutations(gens))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(shifted_restrictions())
    def test_generators_closing_together_match_odometer(system):
        field, nvars, gens = system
        assert solutions(gens, field, nvars)[0] == odometer(gens, field, nvars)

    MODULE_FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]

    @st.composite
    def modules(draw):
        """Semilinear modules over GF(4), GF(8), GF(9), GF(25) or GF(27) of
        dimension 0 to 3: half are cocycles b^-1 * sigma(b) of an invertible
        b, the other half have arbitrary matrices, c_id included."""
        p, d = draw(st.sampled_from(MODULE_FIELDS))
        ext = finite_field(p, d)
        group = frobenius_group(ext)
        elements = list(ext.elements())
        n = draw(st.integers(0, 3))

        def matrix():
            return Matrix(ext, [[draw(st.sampled_from(elements)) for _ in range(n)]
                                for _ in range(n)])

        if draw(st.booleans()):
            b = matrix()
            if not b.is_invertible():
                b = Matrix.identity(ext, n)
            return coboundary_module(group, b)
        return SemilinearModule(group, n, [matrix() for _ in group.elements])

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(modules(), st.sampled_from([None, 600, 20000]))
    def test_fixed_vector_count_matches_odometer(module, points):
        budget = None if points is None else Budget(points=points)
        assert (outcome(count_fixed_vectors, module, budget)
                == outcome(reference_count_fixed_vectors, module, budget))
