"""Differential tests of the builders of ``FiniteAlgebra`` and of the check
of ``AlgebraMap`` against formulas on dense structure constants.

An algebra is its multiplication map, a ``Matrix``.  The references below
build dense structure constants with field arithmetic, entry by entry:
``coords(a * b)`` for an extension, block concatenation for a product, the
Kronecker product of coordinate vectors for a tensor product, and a check of
every pair of basis elements for a map.  Over GF(2) and GF(3), on the
algebras of ``test_verify_reference``, the two must agree.  Skipped when
hypothesis is missing; it is not a dependency of the package.
"""

import functools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from galdescent.errors import ShapeMismatch  # noqa: E402
from galdescent.extension import make_extension  # noqa: E402
from galdescent.fields import QQ  # noqa: E402
from galdescent.flat import AlgebraMap, FiniteAlgebra  # noqa: E402
from galdescent.galois import cyclotomic_field  # noqa: E402
from galdescent.linalg import Matrix  # noqa: E402
from galdescent.unipoly import UniPoly, is_irreducible_mod_p  # noqa: E402
from algebra_reference import VectorAlgebra  # noqa: E402
from helpers import dense_constants  # noqa: E402
from test_verify_reference import (  # noqa: E402
    FIELDS,
    associative,
    product_constants,
    vectors,
)

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def kron_vector(u, v):
    """u (x) v as a coordinate tuple, leftmost slot slowest."""
    return tuple(a * b for a in u for b in v)


def extension_constants(ext):
    basis = ext.power_basis()
    return [[ext.coords(a * b) for b in basis] for a in basis], ext.coords(ext.one)


def product_reference(field, factors):
    """Block concatenation of the constants, one factor at a time."""
    return functools.reduce(lambda first, second: product_constants(field, first, second),
                            [(dense_constants(a), a.unit) for a in factors])


def tensor_constants(A, B):
    b_sc = dense_constants(B)
    sc = [[kron_vector(u, v) for u in a_row for v in b_row]
          for a_row in dense_constants(A) for b_row in b_sc]
    return sc, kron_vector(A.unit, B.unit)


def reference_mul(algebra):
    sc, field, dim = dense_constants(algebra), algebra.field, algebra.dim

    def mul(u, v):
        out = [field.zero] * dim
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                for l, s in enumerate(sc[i][j]):
                    out[l] = out[l] + a * b * s
        return tuple(out)
    return mul


def reference_map_failure(source, target, rows):
    """The message of the first map law that fails on basis elements, or
    None: the unit, then every pair."""
    if target.dim == 0:
        return None
    field = target.field

    def apply(v):
        return tuple(sum((a * x for a, x in zip(row, v)), field.zero) for row in rows)

    if source.dim and apply(source.unit) != target.unit:
        return "map does not preserve the unit"
    mul_a, mul_b = reference_mul(source), reference_mul(target)
    basis = Matrix.identity(field, source.dim).rows
    for bi in basis:
        for bj in basis:
            if apply(mul_a(bi, bj)) != mul_b(apply(bi), apply(bj)):
                return "map is not multiplicative"
    return None


def map_failure(source, target, rows):
    try:
        AlgebraMap(source, target, Matrix(target.field, rows))
    except ShapeMismatch as error:
        return str(error)
    return None


@st.composite
def extensions(draw):
    """GF(p)[t]/(f) for a random irreducible monic f of degree 2 to 4."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 4))
    modulus = draw(st.lists(st.integers(0, field.p - 1), min_size=n, max_size=n)
                   .map(lambda c: UniPoly.from_ints(field, [*c, 1]))
                   .filter(is_irreducible_mod_p))
    return make_extension(field, modulus)


class TestBuilders:
    @SETTINGS
    @given(extensions())
    def test_from_extension(self, ext):
        algebra = FiniteAlgebra.from_extension(ext)
        assert (dense_constants(algebra), algebra.unit) == extension_constants(ext)

    @pytest.mark.parametrize("ext", [
        make_extension(QQ, UniPoly.from_ints(QQ, [1, 0, 1]), irreducible=True),
        make_extension(QQ, UniPoly(QQ, [-QQ.from_int(2).inverse(), QQ.zero, QQ.one]),
                       irreducible=True),
        cyclotomic_field(5), cyclotomic_field(8),
    ], ids=["Q(i)", "Q(sqrt half)", "Cyclo5", "Cyclo8"])
    def test_from_extension_over_q(self, ext):
        algebra = FiniteAlgebra.from_extension(ext)
        assert (dense_constants(algebra), algebra.unit) == extension_constants(ext)

    @SETTINGS
    @given(st.sampled_from(FIELDS).flatmap(
        lambda field: st.lists(associative(field, 3), min_size=1, max_size=3)))
    def test_product(self, factors):
        field = factors[0].field
        algebra = FiniteAlgebra.product(factors)
        assert (dense_constants(algebra), algebra.unit) == product_reference(field, factors)

    @SETTINGS
    @given(st.sampled_from(FIELDS).flatmap(
        lambda field: st.tuples(associative(field, 3), associative(field, 3))))
    def test_tensor(self, pair):
        A, B = pair
        algebra = FiniteAlgebra.tensor(A, B)
        assert (dense_constants(algebra), algebra.unit) == tensor_constants(A, B)


@st.composite
def genuine_maps(draw, field):
    """(source, target, dense rows) of a map that is unital and
    multiplicative: an identity, a base inclusion, a (x) 1, a projection
    from a product, or the diagonal into a product."""
    kind = draw(st.sampled_from(["identity", "inclusion", "left", "projection", "diagonal"]))
    A = draw(associative(field, 3))
    identity = Matrix.identity(field, A.dim)
    if kind == "identity":
        return A, A, identity.rows
    if kind == "inclusion":
        return FiniteAlgebra.base(field), A, [(c,) for c in A.unit]
    B = draw(associative(field, 2))
    if kind == "left":
        T = VectorAlgebra.tensor(A, B)
        return A, T, list(zip(*(T.embed_left(e) for e in identity.rows)))
    P = FiniteAlgebra.product([A, B])
    if kind == "projection":
        return P, A, [row + (field.zero,) * B.dim for row in identity.rows]
    return A, FiniteAlgebra.product([A, A]), identity.rows + identity.rows


@st.composite
def maps(draw):
    """A genuine map, the same with one entry changed or with every entry
    zero (multiplicative, not unital), or a random matrix."""
    field = draw(st.sampled_from(FIELDS))
    source, target, rows = draw(genuine_maps(field))
    rows = [list(row) for row in rows]
    change = draw(st.sampled_from(["none", "entry", "zero", "random"]))
    if change == "entry":
        r, c = draw(st.integers(0, target.dim - 1)), draw(st.integers(0, source.dim - 1))
        rows[r][c] = rows[r][c] + field.from_int(draw(st.integers(1, field.p - 1)))
    elif change == "zero":
        rows = [[field.zero] * source.dim for _ in rows]
    elif change == "random":
        rows = [list(draw(vectors(field, source.dim))) for _ in rows]
    return source, target, rows


def test_algebra_map_agrees_with_every_pair():
    outcomes = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(maps())
    def compare(case):
        expected = reference_map_failure(*case)
        assert map_failure(*case) == expected
        outcomes.add(expected)

    compare()
    # the strategy reaches every verdict, so each was compared
    assert outcomes == {None, "map does not preserve the unit", "map is not multiplicative"}
