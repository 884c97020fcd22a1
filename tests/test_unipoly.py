"""UniPoly's ring operations, wrappers over the raw kernel, against the
boxed reference arithmetic of ``unipoly_reference``; and ``evaluate`` on
the nonzero terms against dense Horner."""

from fractions import Fraction

import pytest

from galdescent.errors import DivisionByZero, FieldMismatch
from galdescent.extension import finite_field
from galdescent.fields import GF, QQ
from galdescent.galois import cyclotomic_field
from galdescent.unipoly import UniPoly
from unipoly_reference import boxed

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a test extra: the pinned cases still run without it
    given = None


def assert_same(ours, theirs):
    """Equal, hashing equal, a plain UniPoly, and canonical: ints in [0, p)
    over F_p, Fractions over Q."""
    assert type(ours) is UniPoly
    assert ours == theirs and hash(ours) == hash(theirs)
    p = ours.field.characteristic
    for c in ours.coeffs:
        if p:
            assert type(c.value) is int and 0 <= c.value < p
        else:
            assert type(c.value) is Fraction


def test_division_by_zero_and_foreign_fields():
    for field in (GF(2), GF(7), QQ):
        f = UniPoly.from_ints(field, [1, 0, 1])
        for divide in (lambda a, b: a.divmod(b), lambda a, b: a % b):
            for operand in (f, boxed(f), UniPoly.zero(field)):
                with pytest.raises(DivisionByZero) as raised:
                    divide(operand, UniPoly.zero(field))
                assert str(raised.value) == "polynomial division by zero"
    f, g = UniPoly.from_ints(GF(7), [1, 2]), UniPoly.from_ints(GF(2), [1, 1])
    for combine in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
                    lambda a, b: a.divmod(b), lambda a, b: a % b,
                    lambda a, b: a * b.leading):
        messages = []
        for left in (f, boxed(f)):
            with pytest.raises(FieldMismatch) as raised:
                combine(left, g)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("make", [
    # dense Phi_101 at a primitive 101st root of unity, which it kills
    lambda: (cyclotomic_field(101).modulus, cyclotomic_field(101).generator ** 2, True),
    lambda: (UniPoly.from_ints(QQ, [Fraction(1, 3), 0, Fraction(-5, 2), 7]),
             cyclotomic_field(5).generator + Fraction(1, 2), False),
    lambda: (finite_field(7, 3).modulus, finite_field(7, 3).generator, True),
])
def test_evaluate_embeds_no_coefficient(monkeypatch, make):
    # each coefficient goes into coordinate 0 of the accumulator: no term
    # becomes a dense value of the extension, so memory is O(degree)
    f, point, root = make()
    expected = boxed(f).evaluate(point, embed=point.field.from_base)
    embedded = []
    from_base = type(point.field).from_base

    def counting(field, b):
        embedded.append(b)
        return from_base(field, b)

    monkeypatch.setattr(type(point.field), "from_base", counting)
    value = f.evaluate(point)
    assert embedded == []
    assert value == expected and (not value) == root


if given is not None:
    FIELDS = [GF(2), GF(7), QQ]

    def coefficients(field):
        if field.characteristic:
            return st.integers(0, field.characteristic - 1)
        return st.fractions(min_value=-9, max_value=9, max_denominator=6)

    @st.composite
    def polys(draw, field):
        """A polynomial with some zero coefficients, sometimes zero."""
        coeffs = draw(st.lists(st.one_of(st.just(0), coefficients(field)), max_size=8))
        return UniPoly.from_ints(field, coeffs)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(FIELDS), st.data())
    def test_ring_operations_match_the_boxed_reference(field, data):
        a, b = data.draw(polys(field)), data.draw(polys(field))
        c = field.from_int(data.draw(coefficients(field)))
        A, B = boxed(a), boxed(b)
        assert_same(a + b, A + B)
        assert_same(a - b, A - B)
        assert_same(-a, -A)
        assert_same(a * b, A * B)
        assert_same(a * c, A * c)
        assert_same(c * a, c * A)
        if b.is_zero:
            with pytest.raises(DivisionByZero, match="^polynomial division by zero$"):
                a.divmod(b)
            return
        quotient, remainder = a.divmod(b)
        expected = A.divmod(B)
        assert_same(quotient, expected[0])
        assert_same(remainder, expected[1])
        assert_same(a % b, A % B)

    @st.composite
    def sparse_polys(draw, field):
        """At most six terms of degree up to 40."""
        terms = draw(st.dictionaries(st.integers(0, 40), coefficients(field), max_size=6))
        coeffs = [0] * (max(terms, default=-1) + 1)
        for i, c in terms.items():
            coeffs[i] = c
        return UniPoly.from_ints(field, coeffs)

    EXTENSIONS = {GF(2): lambda: finite_field(2, 3), GF(7): lambda: finite_field(7, 2),
                  QQ: lambda: cyclotomic_field(5)}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(FIELDS), st.data())
    def test_evaluate_matches_dense_horner(field, data):
        F = EXTENSIONS[field]()
        f = data.draw(sparse_polys(field))
        point = F.from_coords([F.base.from_int(data.draw(coefficients(field)))
                               for _ in range(F.degree)])
        ours, theirs = f.evaluate(point), boxed(f).evaluate(point, embed=F.from_base)
        assert ours == theirs and hash(ours) == hash(theirs)
