"""Extension-field values: ints mod p, or over Q int numerators over one
denominator in lowest terms, equal and hashing equal however an element is
built; the raw arithmetic against a reference that multiplies boxed
polynomials (``unipoly_reference``) and reduces them by the modulus; and coordinate matrices built from the
values against those built from boxed coordinates."""

import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest

from galdescent.errors import Budget, DivisionByZero, FieldMismatch
from galdescent.extension import (
    UNASSERTED,
    VERIFIED,
    ExtensionField,
    finite_field,
    make_extension,
)
from galdescent.fields import GF, QQ
from galdescent import extension
from galdescent.galois import cyclotomic_field
from galdescent.linalg import Matrix
from galdescent.unipoly import UniPoly, cyclotomic
from unipoly_reference import boxed, from_unipoly, poly_gcd, poly_xgcd

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
        "GF(3^4)": lambda: finite_field(3, 4),
        "GF(2^6)": lambda: finite_field(2, 6),
        "Q(i)": lambda: make_extension(QQ, UniPoly.from_ints(QQ, [1, 0, 1]), irreducible=True),
        "Q(sqrt 2)": lambda: make_extension(QQ, UniPoly.from_ints(QQ, [-2, 0, 1]),
                                            irreducible=True),
        # a modulus with a Fraction coefficient, cleared of it for inverses
        "Q(sqrt 1/2)": lambda: make_extension(
            QQ, UniPoly.from_ints(QQ, [Fraction(-1, 2), 0, 1]), irreducible=True),
        "Cyclo(5)": lambda: cyclotomic_field(5),
        "Cyclo(7)": lambda: cyclotomic_field(7),
        "Cyclo(8)": lambda: cyclotomic_field(8),
        # t (t - 1) (t + 1) and t (t - 1/2) (t + 1/2): rings with zero divisors
        "QQ[t]/(t^3 - t)": lambda: make_extension(QQ, UniPoly.from_ints(QQ, [0, -1, 0, 1])),
        "QQ[t]/(t^3 - t/4)": lambda: make_extension(
            QQ, UniPoly.from_ints(QQ, [0, Fraction(-1, 4), 0, 1])),
    }[name]()


HASH_FIELDS = ["GF(3^2)", "GF(5^3)", "Q(i)", "Cyclo(5)"]


def x(F):
    return UniPoly.x(F.base)


def assert_canonical(F, a):
    """The value of ``a`` over Q: n int numerators over an int denominator
    den > 0, with gcd(den, *numerators) == 1 (so zero is ((0,)*n, 1))."""
    numerators, den = a.value
    assert len(numerators) == F.degree
    assert all(type(c) is int for c in numerators)
    assert type(den) is int and den > 0
    assert gcd(den, *numerators) == 1


class TestValues:
    @pytest.mark.parametrize("name", HASH_FIELDS)
    def test_values_are_raw_base_values(self, name):
        # over F_p the coordinates themselves, over Q numerators over one
        # positive denominator, in lowest terms
        F = field(name)
        for a in (F.zero, F.one, F.generator, F.generator * F.generator + 3,
                  F.from_int(Fraction(-3, 4))):
            if F.is_finite:
                assert len(a.value) == F.degree
                assert all(type(c) is int and 0 <= c < F.characteristic for c in a.value)
            else:
                assert_canonical(F, a)
        if not F.is_finite:
            assert F.zero.value == ((0,) * F.degree, 1)
            assert F.from_int(Fraction(-3, 4)).value == ((-3,) + (0,) * (F.degree - 1), 4)
        assert F.coords(F.generator) == (F.base.zero, F.base.one) + (F.base.zero,) * (F.degree - 2)

    @pytest.mark.parametrize("name", HASH_FIELDS)
    def test_every_construction_compares_and_hashes_equal(self, name):
        F = field(name)
        base, n, t = F.base, F.degree, F.generator
        two = [
            F.from_base(base.from_int(2)),
            F.from_int(2),
            F.from_coords([base.from_int(2)] + [base.zero] * (n - 1)),
            from_unipoly(F, UniPoly.from_ints(base, [2])),
            F.one + F.one,
            F.one + 1,
            1 + F.one,
            F.from_int(5) - 3,
            (t + 2) - t,
        ]
        assert all(a == 2 and 2 == a for a in two)
        assert len(set(two)) == 1 and len({hash(a) for a in two}) == 1
        zeros = [F.zero, F.from_int(0), t - t, F.from_coords([base.zero] * n),
                 from_unipoly(F, F.modulus), F.from_base(base.zero), t * 0]
        assert all(z == 0 and 0 == z and not z for z in zeros)
        assert len(set(zeros)) == 1
        assert F.zero != F.one and F.zero != 1
        # Fraction coercion: 1/2 is the inverse of 2 in every field here
        halves = [F.from_int(Fraction(1, 2)), F.from_int(2).inverse(),
                  F.one * Fraction(1, 2), F.from_base(base.from_int(Fraction(1, 2)))]
        assert all(h == Fraction(1, 2) for h in halves) and len(set(halves)) == 1
        # t^n reduced by the modulus, three ways
        powers = [from_unipoly(F, UniPoly.from_ints(base, [0] * n + [1])),
                  t ** n, t * from_unipoly(F, UniPoly.from_ints(base, [0] * (n - 1) + [1]))]
        assert len(set(powers)) == 1
        assert from_unipoly(F, x(F)) == t == F.power_basis()[1]

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

    @pytest.mark.parametrize("p, n", [(2, 11), (3, 7)])
    def test_inverse_memo_key_repeats(self, p, n):
        # fields too large to tabulate memoize inverse values, not elements,
        # which would refer back to the field
        F = finite_field(p, n)
        assert F._inverses == {}
        t = F.generator
        built = [from_unipoly(F, x(F) + UniPoly.from_ints(F.base, [1])),
                 F.from_coords([F.base.one, F.base.one] + [F.base.zero] * (F.degree - 2)),
                 (t * t + t) * t.inverse() + 2 - 2]
        first = (t + 1).inverse()
        keys = len(F._inverses)
        assert F._inverses[(t + 1).value] == first.value
        for again in built:
            assert again.inverse() == first
        assert len(F._inverses) == keys
        assert all(type(v) is tuple for v in F._inverses.values())

    @pytest.mark.parametrize("name", ["Q(i)", "Cyclo(5)"])
    def test_no_inverse_memo_over_q(self, name):
        F = field(name)
        assert F._inverses is None
        assert (F.generator + 1).inverse() * (F.generator + 1) == 1


def dense_high_powers(F):
    """(table, denominator) of t^n .. t^(2n-2) by the dense construction,
    kept as a reference: each power a full list of base values (ints mod p
    or Fractions) read off the modulus, shifted up, plus its top coordinate
    times t^n; then every coordinate over the lcm of all denominators."""
    n, p = F.degree, F.characteristic
    t_n = [(-c).value for c in F.modulus.coeffs[:n]]
    power, powers = t_n, []
    for _ in range(n - 1):
        powers.append(power)
        top, power = power[-1], [0] + power[:-1]
        if top:
            power = [x + top * y if y else x for x, y in zip(power, t_n)]
            if p:
                power = [x % p for x in power]
    d = lcm(*(Fraction(x).denominator for power in powers for x in power))
    return [[(i, int(x * d)) for i, x in enumerate(power) if x] for power in powers], d


def random_dense_modulus(base, degree, seed):
    rng = random.Random(seed)
    if base.is_finite:
        coeffs = [rng.randrange(1, base.p) for _ in range(degree)]
    else:
        coeffs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
                  for _ in range(degree)]
    return UniPoly(base, [base.from_int(c) for c in coeffs] + [base.one])


class TestHighPowers:
    """The sparse table of t^n .. t^(2n-2) against the dense build."""

    @pytest.mark.parametrize("build", [
        lambda: field("Cyclo(5)"),
        lambda: ExtensionField(QQ, cyclotomic(1000), UNASSERTED),
        lambda: ExtensionField(QQ, cyclotomic(1031), UNASSERTED),
        lambda: field("GF(3^42)"),
        lambda: ExtensionField(QQ, random_dense_modulus(QQ, 17, 1), UNASSERTED),
        lambda: ExtensionField(GF(7), random_dense_modulus(GF(7), 23, 2), VERIFIED),
    ], ids=["Cyclo(5)", "Cyclo(1000)", "Cyclo(1031)", "GF(3^42)", "QQ dense", "GF(7) dense"])
    def test_matches_dense_build(self, build):
        F = build()
        table, denominator = dense_high_powers(F)
        assert F._high_powers == table
        assert F._high_denominator == denominator
        assert len(F._high_powers) == F.degree - 1

    def test_cyclotomic_table_is_linear_in_the_degree(self):
        # Phi_1031: t^1030 has 1030 terms and t^1031 .. t^2058 one each;
        # the dense build peaked at about 9 MB under tracemalloc, the sparse
        # one at under 1 MB
        modulus = cyclotomic(1031)
        tracemalloc.start()
        try:
            F = ExtensionField(QQ, modulus, UNASSERTED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(map(len, F._high_powers)) == 1030 + 1028
        assert peak < 2_000_000


def residue(F, a):
    """a as a boxed reference polynomial of degree < n."""
    return boxed(F.to_unipoly(a))


def boxed_inverse(F, a):
    """The inverse by the boxed extended gcd of a and the modulus."""
    g, s, _ = poly_xgcd(F.to_unipoly(a), F.modulus)
    assert g.degree == 0
    return from_unipoly(F, s * g.coeff(0).inverse())


class TestInverse:
    """The raw extended gcd against the boxed one."""

    @pytest.mark.parametrize("name", ["GF(3^4)", "GF(2^6)"])
    def test_every_nonzero_element(self, name):
        F = field(name)
        for a in F.elements():
            if a:
                inverse = a.inverse()
                assert inverse.value == boxed_inverse(F, a).value
                assert all(type(c) is int and 0 <= c < F.characteristic for c in inverse.value)

    @pytest.mark.parametrize("name", ["Q(i)", "Q(sqrt 2)", "Q(sqrt 1/2)", "Cyclo(5)",
                                      "Cyclo(7)", "QQ[t]/(t^3 - t/4)"])
    def test_derandomized_elements_over_q(self, name):
        F, rng = field(name), random.Random(name)
        for _ in range(40):
            coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.7
                      else Fraction(0) for _ in range(F.degree)]
            a = F.from_coords([QQ.from_int(c) for c in coords])
            if a and poly_gcd(F.to_unipoly(a), F.modulus).degree:
                with pytest.raises(DivisionByZero, match="is a zero divisor modulo"):
                    a.inverse()
            elif a:
                inverse = a.inverse()
                assert inverse.value == boxed_inverse(F, a).value
                assert_canonical(F, inverse)
                assert a * inverse == 1

    def test_seeded_elements_of_cyclo101(self):
        # dense coordinates over a modulus of degree 100: the int extended
        # gcd keeps its remainders primitive
        F, rng = cyclotomic_field(101), random.Random("Cyclo(101)")
        for _ in range(3):
            a = F.from_coords([QQ.from_int(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                               for _ in range(F.degree)])
            inverse = a.inverse()
            assert_canonical(F, inverse)
            assert a * inverse == 1


def sample(F, seed, count=12):
    """Derandomized elements of F, zero among them; over Q with
    coordinates over different denominators."""
    rng = random.Random(seed)
    base, out = F.base, [F.zero]
    for _ in range(count):
        if F.is_finite:
            coords = [rng.randrange(F.characteristic) for _ in range(F.degree)]
        else:
            coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.6
                      else 0 for _ in range(F.degree)]
        out.append(F.from_coords([base.from_int(c) for c in coords]))
    return out


@pytest.mark.parametrize("name", ["GF(3^2)", "GF(5^3)", "GF(2^12)", "Q(i)", "Q(sqrt 1/2)",
                                  "Cyclo(7)"])
def test_formatting_reads_the_coordinates(name):
    """An element's text is that of its boxed polynomial in t, -1*t
    included, and as a coefficient a non-constant one is parenthesized."""
    F = field(name)
    t = F.generator
    for a in sample(F, 5, 20) + [F.one, -F.one, F.from_int(3), t, -t, 2 * t - 1]:
        text = F.to_unipoly(a).format()
        assert F.format_element(a) == text
        constant = F.to_unipoly(a).degree <= 0
        assert F.format_coefficient(a) == (text if constant else f"({text})")
    if not F.is_finite:
        assert F.format_coefficient(-t) == "(-1*t)"


class TestCoordsMatrix:
    """The matrix built from raw values against the one built from boxed
    coordinates."""

    FOREIGN = {"Q(i)": "Q(sqrt 2)", "Cyclo(5)": "Cyclo(7)", "GF(3^4)": "GF(3^2)",
               "GF(2^6)": "GF(2^12)"}

    @pytest.mark.parametrize("name", ["Q(i)", "Cyclo(5)", "GF(3^4)", "GF(2^6)"])
    def test_equals_the_matrix_of_boxed_coordinates(self, name):
        F = field(name)
        elements = sample(F, name)
        for chosen in (elements, elements[1:4], [F.zero, F.zero], [F.one] + elements[5:]):
            ours = F.coords_matrix(chosen)
            theirs = Matrix.from_cols(F.base, [F.coords(e) for e in chosen])
            assert ours == theirs
            assert ours._rows == theirs._rows and ours._den == theirs._den
            assert hash(ours) == hash(theirs)
        for a in elements[:4]:
            ours = F.mult_matrix(a)
            theirs = Matrix.from_cols(F.base, [F.coords(a * b) for b in F.power_basis()])
            assert ours == theirs and ours._den == theirs._den and hash(ours) == hash(theirs)

    @pytest.mark.parametrize("name", ["Q(i)", "Cyclo(5)", "GF(3^4)", "GF(2^6)"])
    def test_refuses_an_element_of_another_field(self, name):
        F, other = field(name), field(self.FOREIGN[name])
        for stranger in (other.generator, other.one, F.base.one):
            with pytest.raises(FieldMismatch):
                F.coords_matrix([F.one, stranger])


def test_arithmetic_over_q_builds_no_fraction(monkeypatch):
    """+, -, *, inverse, combine, from_coords and the raw matrix builder
    over Cyclo(7) run on ints: ``Fraction`` in the extension module raises."""
    F = field("Cyclo(7)")
    a, b, c = sample(F, "no Fraction", count=3)[1:]
    coords = F.coords(a)

    def stub(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(extension, "Fraction", stub)
    powers = [b ** j for j in range(F.degree)]
    results = [a + b, a - b, -a, a * b, a * c + b, b.inverse(), a.inverse() * a,
               F.combine(a, powers.__getitem__), F.from_coords(coords),
               F.coords_matrix([a, b, c]),
               F.mult_matrix(c), F._sub_mul(a.value, b.value, c.value)]
    assert results[6] == F.one and results[8] == a
    monkeypatch.undo()
    assert results[3] == from_unipoly(F, residue(F, a) * residue(F, b))


class TestLogKernel:
    """A field of order at most ``TABULATED_ORDER`` multiplies, computes
    a - b*c and inverts by the logarithms of its table set; the polynomial
    kernel of ``ExtensionField``, which every larger field runs, is the
    reference, called on the same field."""

    @staticmethod
    def check(F, a, b, c):
        assert F._mul(b, c) == ExtensionField._mul(F, b, c)
        assert F._sub_mul(a.value, b.value, c.value) == ExtensionField._sub_mul(
            F, a.value, b.value, c.value)
        if b:
            assert F._inv(b) == ExtensionField._inv(F, b)

    @pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
    def test_every_pair_matches_the_polynomial_kernel(self, p, n):
        # a runs through zero, b*c (so that a - b*c cancels) and a third
        # element that changes with the pair
        F = finite_field(p, n)
        assert isinstance(F, extension._TabulatedExtensionOfFp)
        elements = list(F.elements())
        for i, b in enumerate(elements):
            for j, c in enumerate(elements):
                for a in (F.zero, ExtensionField._mul(F, b, c),
                          elements[(3 * i + j) % len(elements)]):
                    self.check(F, a, b, c)

    def test_samples_of_gf961_match_the_polynomial_kernel(self):
        F = finite_field(31, 2)
        assert isinstance(F, extension._TabulatedExtensionOfFp)
        elements = list(F.elements())
        rng = random.Random(961)
        for _ in range(3000):
            a, b, c = (rng.choice(elements) for _ in range(3))
            self.check(F, a, b, c)
            self.check(F, ExtensionField._mul(F, b, c), b, c)

    def test_the_bound_is_the_default_scan_table_size(self):
        # q x q table entries fit in the default point budget
        assert extension.TABULATED_ORDER == 1414
        assert 1414 ** 2 <= Budget().points < 1415 ** 2
        assert isinstance(finite_field(37, 2), extension._TabulatedExtensionOfFp)
        for p, n in ((2, 11), (3, 7), (2, 12)):
            assert type(finite_field(p, n)) is extension._ExtensionOfFp

    def test_a_larger_field_takes_the_polynomial_path(self, monkeypatch):
        def refuse(self, field):
            raise AssertionError("tables built for a field above the bound")

        monkeypatch.setattr(extension.SmallFieldTables, "__init__", refuse)
        F = finite_field(2, 11)
        t = F.generator
        a, b = t ** 100 + 1, t ** 1000 + t
        product = a * b
        assert product == from_unipoly(F, residue(F, a) * residue(F, b))
        assert a.inverse() * a == F.one
        assert F._sub_mul(product.value, a.value, b.value) is None
        assert not hasattr(F, "tables")


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

    def test_zero_divisors_over_a_fraction_modulus(self):
        F = field("QQ[t]/(t^3 - t/4)")
        t = F.generator
        for a in (t, t * t - Fraction(1, 4), 2 * t + 1):
            with pytest.raises(DivisionByZero) as raised:
                a.inverse()
            assert str(raised.value) == f"{a!r} is a zero divisor modulo {F.modulus.format()}"

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
        return from_unipoly(F, residue(F, a) * residue(F, b))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(DIFFERENTIAL_FIELDS), st.data())
    def test_raw_arithmetic_matches_unipoly_reference(name, data):
        """_mul, _sub_mul and inverse on raw values agree with the product of
        boxed reference polynomials reduced by the modulus."""
        F = field(name)
        a, b, c = (data.draw(values(F)) for _ in range(3))
        product = F._mul(b, c)
        assert product == reference_product(F, b, c)
        assert hash(product) == hash(reference_product(F, b, c))
        difference = from_unipoly(F, residue(F, a) - residue(F, b) * residue(F, c))
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

    CANONICAL_FIELDS = ["Q(i)", "Q(sqrt 2)", "Cyclo(5)", "Cyclo(8)"]

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(CANONICAL_FIELDS), st.booleans(), st.data())
    def test_results_over_q_are_canonical(name, cancel, data):
        """Every result of +, -, *, inverse, combine and from_coords over Q
        is numerators over a positive denominator with content 1 (zero is
        ((0,)*n, 1)), and hashes equal to the value built another way:
        through the boxed reference arithmetic, or term by term.
        ``cancel`` draws b = a, so that sums and differences cancel."""
        F = field(name)
        a = data.draw(values(F))
        b = a if cancel else data.draw(values(F))
        # coordinates over different denominators, from_coords against
        # the sum of their terms
        coords = [F.base.from_int(c) for c in data.draw(st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=12),
            min_size=F.degree, max_size=F.degree))]
        pairs = [
            (a + b, from_unipoly(F, residue(F, a) + residue(F, b))),
            (a - b, from_unipoly(F, residue(F, a) - residue(F, b))),
            (a + -b, from_unipoly(F, residue(F, a) - residue(F, b))),
            (a * b, reference_product(F, a, b)),
            (F.combine(a, [b ** j for j in range(F.degree)].__getitem__),
             F.to_unipoly(a).evaluate(b)),
            (F.from_coords(coords),
             sum((F.from_base(c) * t for c, t in zip(coords, F.power_basis())), F.zero)),
        ]
        if a:
            pairs.append((a.inverse(), boxed_inverse(F, a)))
        for ours, theirs in pairs:
            assert_canonical(F, ours)
            assert ours == theirs and hash(ours) == hash(theirs)
            if not ours:
                assert ours.value == ((0,) * F.degree, 1)
