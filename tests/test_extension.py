"""Extension-field values: raw base coordinates, equal and hashing equal
however an element is built, and the raw arithmetic against a reference
that multiplies ``UniPoly``s and reduces them by the modulus."""

from fractions import Fraction
from functools import lru_cache

import pytest

from galdescent.errors import DivisionByZero, FieldMismatch
from galdescent.extension import UNASSERTED, finite_field, make_extension
from galdescent.fields import GF, QQ
from galdescent.galois import cyclotomic_field
from galdescent.unipoly import UniPoly, poly_gcd

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a test extra
    given = None


@lru_cache(maxsize=None)
def field(name):
    return {
        "GF(3^2)": lambda: finite_field(3, 2),
        "GF(5^3)": lambda: finite_field(5, 3),
        "GF(2^12)": lambda: finite_field(2, 12),
        "GF(3^42)": lambda: finite_field(3, 42),
        "Q(i)": lambda: make_extension(QQ, UniPoly.from_ints(QQ, [1, 0, 1]), irreducible=True),
        "Cyclo(5)": lambda: cyclotomic_field(5),
        "Cyclo(7)": lambda: cyclotomic_field(7),
        # t (t - 1) (t + 1) and t (t - 1/2) (t + 1/2): rings with zero divisors
        "QQ[t]/(t^3 - t)": lambda: make_extension(QQ, UniPoly.from_ints(QQ, [0, -1, 0, 1])),
        "QQ[t]/(t^3 - t/4)": lambda: make_extension(
            QQ, UniPoly.from_ints(QQ, [0, Fraction(-1, 4), 0, 1])),
    }[name]()


HASH_FIELDS = ["GF(3^2)", "GF(5^3)", "Q(i)", "Cyclo(5)"]


def x(F):
    return UniPoly.x(F.base)


class TestValues:
    @pytest.mark.parametrize("name", HASH_FIELDS)
    def test_values_are_raw_base_values(self, name):
        F = field(name)
        kind = int if F.is_finite else Fraction
        for a in (F.zero, F.one, F.generator, F.generator * F.generator + 3):
            assert len(a.value) == F.degree
            assert all(type(c) is kind for c in a.value)
            if F.is_finite:
                assert all(0 <= c < F.characteristic for c in a.value)
        assert F.coords(F.generator) == (F.base.zero, F.base.one) + (F.base.zero,) * (F.degree - 2)

    @pytest.mark.parametrize("name", HASH_FIELDS)
    def test_every_construction_compares_and_hashes_equal(self, name):
        F = field(name)
        base, n, t = F.base, F.degree, F.generator
        two = [
            F.from_base(base.from_int(2)),
            F.from_int(2),
            F.from_coords([base.from_int(2)] + [base.zero] * (n - 1)),
            F.from_unipoly(UniPoly.from_ints(base, [2])),
            F.one + F.one,
            F.one + 1,
            1 + F.one,
            F.from_int(5) - 3,
            (t + 2) - t,
        ]
        assert all(a == 2 and 2 == a for a in two)
        assert len(set(two)) == 1 and len({hash(a) for a in two}) == 1
        zeros = [F.zero, F.from_int(0), t - t, F.from_coords([base.zero] * n),
                 F.from_unipoly(F.modulus), F.from_base(base.zero), t * 0]
        assert all(z == 0 and 0 == z and not z for z in zeros)
        assert len(set(zeros)) == 1
        assert F.zero != F.one and F.zero != 1
        # Fraction coercion: 1/2 is the inverse of 2 in every field here
        halves = [F.from_int(Fraction(1, 2)), F.from_int(2).inverse(),
                  F.one * Fraction(1, 2), F.from_base(base.from_int(Fraction(1, 2)))]
        assert all(h == Fraction(1, 2) for h in halves) and len(set(halves)) == 1
        # t^n reduced by the modulus, three ways
        powers = [F.from_unipoly(UniPoly.from_ints(base, [0] * n + [1])),
                  t ** n, t * F.from_unipoly(UniPoly.from_ints(base, [0] * (n - 1) + [1]))]
        assert len(set(powers)) == 1
        assert F.from_unipoly(x(F)) == t == F.power_basis()[1]

    def test_separate_copies_of_a_field_share_values(self):
        A, B = finite_field(5, 3), finite_field(5, 3)
        assert A is not B
        a, b = A.generator + 1, B.from_coords([GF(5).one, GF(5).one, GF(5).zero])
        assert a == b and hash(a) == hash(b) and a * b == b * a

    def test_from_coords_refuses_a_foreign_base(self):
        F = field("GF(3^2)")
        with pytest.raises(FieldMismatch, match="coordinate not in base field"):
            F.from_coords([GF(5).one, GF(5).zero])
        with pytest.raises(FieldMismatch, match="coordinate not in base field"):
            F.from_coords([1, 0])
        with pytest.raises(FieldMismatch, match="need 2 coordinates, got 3"):
            F.from_coords([GF(3).one] * 3)
        with pytest.raises(FieldMismatch):
            F.generator + field("GF(5^3)").generator

    @pytest.mark.parametrize("p, n", [(3, 2), (5, 3)])
    def test_inverse_memo_key_repeats(self, p, n):
        F = finite_field(p, n)
        assert F._inverses == {}
        t = F.generator
        built = [F.from_unipoly(x(F) + UniPoly.from_ints(F.base, [1])),
                 F.from_coords([F.base.one, F.base.one] + [F.base.zero] * (F.degree - 2)),
                 (t * t + t) * t.inverse() + 2 - 2]
        first = (t + 1).inverse()
        keys = len(F._inverses)
        assert (t + 1).value in F._inverses
        for again in built:
            assert again.inverse() is first
        assert len(F._inverses) == keys

    @pytest.mark.parametrize("name", ["Q(i)", "Cyclo(5)"])
    def test_no_inverse_memo_over_q(self, name):
        F = field(name)
        assert F._inverses is None
        assert (F.generator + 1).inverse() * (F.generator + 1) == 1


class TestDivisionByZeroMessages:
    """Every DivisionByZero that the field layer raises, by its text."""

    @pytest.mark.parametrize("name", HASH_FIELDS)
    def test_inverse_of_zero(self, name):
        with pytest.raises(DivisionByZero) as raised:
            field(name).zero.inverse()
        assert str(raised.value) == "inverse of zero"

    def test_zero_divisor(self):
        F = field("QQ[t]/(t^3 - t)")
        assert F.irreducibility == UNASSERTED
        with pytest.raises(DivisionByZero) as raised:
            (F.generator * F.generator - 1).inverse()
        assert str(raised.value) == "t^2 - 1 is a zero divisor modulo t^3 - 1*t"

    def test_base_field_messages(self):
        cases = [
            (lambda: QQ.zero.inverse(), "1/0 in QQ"),
            (lambda: GF(5).zero.inverse(), "1/0 in F_5"),
            (lambda: field("GF(3^2)").from_int(Fraction(1, 3)), "denominator divisible by 3"),
            (lambda: field("GF(3^2)").one * Fraction(2, 9), "denominator divisible by 3"),
            (lambda: UniPoly.zero(QQ).leading, "zero polynomial has no leading coefficient"),
            (lambda: UniPoly.x(QQ) % UniPoly.zero(QQ), "polynomial division by zero"),
        ]
        for call, message in cases:
            with pytest.raises(DivisionByZero) as raised:
                call()
            assert str(raised.value) == message


if given is not None:
    DIFFERENTIAL_FIELDS = ["GF(2^12)", "GF(3^42)", "GF(5^3)", "Cyclo(7)", "QQ[t]/(t^3 - t/4)"]

    @st.composite
    def values(draw, F):
        """An element with some zero coordinates, as the raw kernel skips them."""
        if F.is_finite:
            coordinate = st.integers(0, F.characteristic - 1)
        else:
            coordinate = st.fractions(min_value=-9, max_value=9, max_denominator=6)
        coords = draw(st.lists(st.one_of(st.just(0), coordinate),
                               min_size=F.degree, max_size=F.degree))
        return F.from_coords([F.base.from_int(c) for c in coords])

    def reference_product(F, a, b):
        return F.from_unipoly((F.to_unipoly(a) * F.to_unipoly(b)) % F.modulus)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(DIFFERENTIAL_FIELDS), st.data())
    def test_raw_arithmetic_matches_unipoly_reference(name, data):
        """_mul, _sub_mul and inverse on raw values agree with the product of
        UniPolys reduced by the modulus."""
        F = field(name)
        a, b, c = (data.draw(values(F)) for _ in range(3))
        product = F._mul(b, c)
        assert product == reference_product(F, b, c)
        assert hash(product) == hash(reference_product(F, b, c))
        difference = F.from_unipoly((F.to_unipoly(a) - F.to_unipoly(b) * F.to_unipoly(c))
                                    % F.modulus)
        value = F._sub_mul(a.value, b.value, c.value)
        if not difference:
            assert value is None
        else:
            assert value == difference.value
        if not a:
            return
        if poly_gcd(F.to_unipoly(a), F.modulus).degree > 0:
            with pytest.raises(DivisionByZero, match="is a zero divisor modulo"):
                a.inverse()
        else:
            assert reference_product(F, a, a.inverse()) == F.one
