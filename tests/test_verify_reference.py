"""Differential test of ``FiniteAlgebra.verify`` against a check of every
basis triple.

``verify`` proves associativity from a generating set in the left nucleus;
the reference below multiplies out the unit law, commutativity and
associativity on all basis pairs and triples, in the order the laws are
reported.  On small structure constants over GF(2) and GF(3) the two must
raise the same message or both accept.  Skipped when hypothesis is missing;
it is not a dependency of the package.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from galdescent.errors import ShapeMismatch  # noqa: E402
from galdescent.fields import GF  # noqa: E402
from galdescent.flat import FiniteAlgebra  # noqa: E402
from helpers import dense_constants  # noqa: E402

FIELDS = [GF(2), GF(3)]
MAX_DIM = 4


def reference_failure(field, sc, unit):
    """The message of the first law that fails on basis elements, or None."""
    dim = len(sc)

    def mul(u, v):
        out = [field.zero] * dim
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                for l, s in enumerate(sc[i][j]):
                    out[l] = out[l] + a * b * s
        return tuple(out)

    basis = [tuple(field.one if l == k else field.zero for l in range(dim))
             for k in range(dim)]
    for i, bi in enumerate(basis):
        if mul(unit, bi) != bi or mul(bi, unit) != bi:
            return f"unit law fails on basis element {i}"
        for j, bj in enumerate(basis):
            if mul(bi, bj) != mul(bj, bi):
                return f"product not commutative at ({i}, {j})"
    for bi in basis:
        for bj in basis:
            for bl in basis:
                if mul(mul(bi, bj), bl) != mul(bi, mul(bj, bl)):
                    return "product not associative"
    return None


def verify_failure(field, sc, unit):
    try:
        FiniteAlgebra(field, sc, unit)
    except ShapeMismatch as error:
        return str(error)
    return None


def vectors(field, dim):
    return st.tuples(*[st.integers(0, field.p - 1).map(field.from_int)] * dim)


@st.composite
def monogenic(draw, field, dim):
    """k[x]/(f) on the basis 1, x, ..., x^(dim-1) for a random monic f of
    degree ``dim``: commutative and associative, reduced or not."""
    f = draw(vectors(field, dim))   # x^dim = -(f_0 + f_1 x + ...)
    zero = field.zero

    def reduce(coeffs):
        coeffs = list(coeffs)
        for top in range(len(coeffs) - 1, dim - 1, -1):
            c = coeffs[top]
            coeffs[top] = zero
            for l in range(dim):
                coeffs[top - dim + l] = coeffs[top - dim + l] - c * f[l]
        return tuple(coeffs[:dim])

    sc = [[reduce([field.one if l == i + j else zero for l in range(2 * dim - 1)])
           for j in range(dim)] for i in range(dim)]
    return FiniteAlgebra(field, sc, tuple(field.one if l == 0 else zero for l in range(dim)))


@st.composite
def associative(draw, field, max_dim):
    """A monogenic algebra, or a product or tensor product of two."""
    shape = draw(st.sampled_from(["monogenic", "product", "tensor"]))
    if shape == "monogenic" or max_dim < 2:
        return draw(monogenic(field, draw(st.integers(1, max_dim))))
    first = draw(st.integers(1, max_dim - 1 if shape == "product" else max_dim // 2))
    rest = max_dim - first if shape == "product" else max_dim // first
    A = draw(monogenic(field, first))
    B = draw(monogenic(field, draw(st.integers(1, rest))))
    return FiniteAlgebra.product([A, B]) if shape == "product" else FiniteAlgebra.tensor(A, B)


def product_constants(field, first, second):
    """Dense constants and unit of the product of two (constants, unit)
    pairs, which need not be associative."""
    (sc_a, unit_a), (sc_b, unit_b) = first, second
    m, n = len(sc_a), len(sc_b)
    zero = field.zero
    sc = [[v + (zero,) * n for v in row] + [(zero,) * (m + n)] * n for row in sc_a]
    sc += [[(zero,) * (m + n)] * m + [(zero,) * m + v for v in row] for row in sc_b]
    return sc, unit_a + unit_b


@st.composite
def unital_constants(draw, field, max_dim):
    """Random commutative constants with e_0 the unit: rarely associative."""
    dim = draw(st.integers(1, max_dim))
    unit = tuple(field.one if l == 0 else field.zero for l in range(dim))
    sc = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            vec = (tuple(field.one if l == i + j else field.zero for l in range(dim))
                   if i == 0 else draw(vectors(field, dim)))
            sc[i][j] = sc[j][i] = vec
    return sc, unit


@st.composite
def unital_after_associative(draw, field):
    """An associative factor times random unital constants, so that the
    first generators lie in the nucleus and a later one decides."""
    algebra = draw(associative(field, MAX_DIM - 1))
    first = (dense_constants(algebra), algebra.unit)
    return product_constants(field, first, draw(unital_constants(field, MAX_DIM - algebra.dim)))


@st.composite
def perturbed_constants(draw, field):
    """An associative algebra's constants with, at random, one product
    replaced (on one side or both) or the unit replaced."""
    algebra = draw(associative(field, MAX_DIM))
    sc, unit, dim = dense_constants(algebra), algebra.unit, algebra.dim
    change = draw(st.sampled_from(["none", "symmetric", "one side", "unit"]))
    if change == "unit":
        unit = draw(vectors(field, dim))
    elif change != "none":
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        sc[i][j] = draw(vectors(field, dim))
        if change == "symmetric":
            sc[j][i] = sc[i][j]
    return sc, unit


@st.composite
def cases(draw):
    field = draw(st.sampled_from(FIELDS))
    sc, unit = draw(st.one_of(unital_constants(field, MAX_DIM), perturbed_constants(field),
                              unital_after_associative(field)))
    return field, sc, unit


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cases())
def test_verify_agrees_with_every_triple(case):
    field, sc, unit = case
    assert verify_failure(field, sc, unit) == reference_failure(field, sc, unit)
