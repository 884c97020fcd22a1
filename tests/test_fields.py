from fractions import Fraction
from math import isqrt

import pytest

from galdescent import extension, fields, unipoly
from galdescent.errors import (
    DivisionByZero,
    InvalidFieldParameter,
    NotIrreducible,
    NotMonic,
    NotSquarefree,
)
from galdescent.fields import GF, QQ, FieldElement, is_prime
from galdescent.galois import cyclotomic_field
from galdescent.extension import ASSERTED, UNASSERTED, VERIFIED, finite_field, make_extension
from galdescent.linalg import Matrix
from galdescent.multipoly import MultiPolynomial
from galdescent.unipoly import (
    UniPoly,
    cyclotomic,
    default_modulus,
    is_irreducible_mod_p,
    is_squarefree,
)

from unipoly_reference import (
    boxed,
    boxed_ben_or,
    boxed_is_squarefree,
    rabin_is_irreducible,
    reference_cyclotomic,
)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a test extra
    given = None


F3 = GF(3)


def poly(field, ints):
    return UniPoly.from_ints(field, ints)


def monics(field, deg):
    """The monic polynomials of degree ``deg`` in increasing order of the
    base-p integer of their lower coefficients, constant term lowest."""
    p = field.characteristic
    out = []
    for code in range(p ** deg):
        coeffs, rest = [], code
        for _ in range(deg):
            coeffs.append(rest % p)
            rest //= p
        out.append(poly(field, coeffs + [1]))
    return out


def has_lower_factor(f, field):
    """Trial division by every monic polynomial of lower positive degree,
    on the boxed reference arithmetic."""
    return any((boxed(f) % g).is_zero for low in range(1, f.degree) for g in monics(field, low))


class TestMakeExtension:
    def test_gf9_from_t2_plus_1(self):
        # t^2 + 1 has no root mod 3: trial of t in {0,1,2}
        for t in range(3):
            assert (t * t + 1) % 3 != 0
        F9 = make_extension(F3, poly(F3, [1, 0, 1]))
        assert F9.degree == 2
        assert F9.order == 9
        assert F9.irreducibility == VERIFIED

    def test_gaussian_field(self):
        Qi = make_extension(QQ, poly(QQ, [1, 0, 1]), irreducible=True)
        assert Qi.degree == 2
        assert Qi.irreducibility == ASSERTED

    def test_squarefree_but_reducible_over_q(self):
        K = make_extension(QQ, poly(QQ, [-1, 0, 1]), irreducible=False)
        assert K.irreducibility == UNASSERTED

    def test_reducible_over_f5(self):
        with pytest.raises(NotIrreducible):
            make_extension(GF(5), poly(GF(5), [-1, 0, 1]))

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            make_extension(QQ, poly(QQ, [0, 0, 1]))

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            make_extension(QQ, poly(QQ, [1, 0, 2]))


class TestArithmetic:
    def test_invert_one(self):
        Qi = make_extension(QQ, poly(QQ, [1, 0, 1]), irreducible=True)
        assert Qi.one.inverse() == Qi.one

    def test_invert_i(self):
        Qi = make_extension(QQ, poly(QQ, [1, 0, 1]), irreducible=True)
        i = Qi.generator
        assert i.inverse() == -i
        assert i * i.inverse() == Qi.one

    def test_invert_t_in_gf9(self):
        F9 = finite_field(3, 2)
        t = F9.generator
        # t * 2t = 2 t^2 = 2 * (-1) = 1 mod 3
        assert t.inverse() == t * 2
        assert t * t.inverse() == F9.one

    def test_invert_zero_raises(self):
        F9 = finite_field(3, 2)
        with pytest.raises(DivisionByZero):
            F9.zero.inverse()

    def test_zero_divisor_in_unasserted_ring(self):
        K = make_extension(QQ, poly(QQ, [-1, 0, 1]), irreducible=False)
        t = K.generator
        with pytest.raises(DivisionByZero):
            (t - 1).inverse()

    def test_invert_is_involution(self):
        F9 = finite_field(3, 2)
        for a in F9.elements():
            if a:
                assert a.inverse().inverse() == a

    def test_exhaustive_inverse_oracle_gf9(self):
        F9 = finite_field(3, 2)
        for a in F9.elements():
            if a:
                assert a * a.inverse() == F9.one

    def test_frobenius_power(self):
        F8 = finite_field(2, 3)
        for a in F8.elements():
            assert a ** 8 == a

    def test_power_takes_one_product_per_bit_below_the_top(self, monkeypatch):
        # square and multiply from the top bit: bit_length - 1 squarings and
        # one product per further set bit, so a ** 1 takes none
        Qi = make_extension(QQ, poly(QQ, [1, 0, 1]), irreducible=True)
        a = Qi.generator + 2
        expected = [Qi.one]
        for _ in range(40):
            expected.append(expected[-1] * a)
        count, multiply = [0], type(Qi)._mul

        def counted(field, x, y):
            count[0] += 1
            return multiply(field, x, y)

        monkeypatch.setattr(type(Qi), "_mul", counted)
        for k, power in enumerate(expected):
            count[0] = 0
            assert a ** k == power
            assert count[0] == (k.bit_length() + bin(k).count("1") - 2 if k else 0)
            assert a ** -k * power == Qi.one


class TestHashing:
    def test_equal_values_over_separate_copies_hash_equally(self):
        # two separately constructed copies of GF(9) compare equal, so
        # everything built over them must hash by value, not by identity
        A, B = finite_field(3, 2), finite_field(3, 2)
        assert A == B
        a, b = A.generator, B.generator
        assert a == b and len({a, b}) == 1
        ma = Matrix(A, [[a, A.one], [A.zero, a * a]])
        mb = Matrix(B, [[b, B.one], [B.zero, b * b]])
        assert ma == mb and len({ma, mb}) == 1
        names = ("x", "y")
        pa = MultiPolynomial.variable(A, names, "x") * a + MultiPolynomial.variable(A, names, "y")
        pb = MultiPolynomial.variable(B, names, "x") * b + MultiPolynomial.variable(B, names, "y")
        assert pa == pb and len({pa, pb}) == 1


    @pytest.mark.parametrize("build", [lambda: finite_field(3, 2),
                                       lambda: cyclotomic_field(8)])
    def test_equal_fields_built_separately_hash_equally(self, build):
        # the hash is taken once, when the field is built
        A, B = build(), build()
        assert A is not B and A == B
        assert hash(A) == hash(B) and len({A, B}) == 1

class TestDefaultModulus:
    def test_gf9_default_is_t2_plus_1(self):
        assert default_modulus(3, 2) == poly(F3, [1, 0, 1])

    def test_gf8_default_is_t3_t_1(self):
        F2 = GF(2)
        assert default_modulus(2, 3) == poly(F2, [1, 1, 0, 1])

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_default_is_first_irreducible_in_base_p_order(self, p):
        field = GF(p)
        for n in range(1, 5):
            first = next(f for f in monics(field, n) if not has_lower_factor(f, field))
            assert default_modulus(p, n) == first

    def test_prime_above_scan_limit_needs_explicit_modulus(self):
        p = 100000000000000000039
        with pytest.raises(InvalidFieldParameter, match="no default modulus"):
            default_modulus(p, 2)
        # p = 3 mod 4, so t^2 + 1 is irreducible
        assert finite_field(p, 2, poly(GF(p), [1, 0, 1])).order == p * p

    def test_default_modulus_tested_once(self, monkeypatch):
        # GF(3^2) rejects t^2 and accepts t^2 + 1; the field is built on that
        # verdict without a third test, while a supplied modulus is tested
        tested = []

        def counted(f):
            tested.append(f)
            return is_irreducible_mod_p(f)

        monkeypatch.setattr(unipoly, "is_irreducible_mod_p", counted)
        monkeypatch.setattr(extension, "is_irreducible_mod_p", counted)
        assert finite_field(3, 2).irreducibility == VERIFIED
        assert tested == [poly(F3, [0, 0, 1]), poly(F3, [1, 0, 1])]
        tested.clear()
        assert finite_field(3, 2, poly(F3, [2, 1, 1])).irreducibility == VERIFIED
        assert tested == [poly(F3, [2, 1, 1])]
        with pytest.raises(NotIrreducible):
            finite_field(3, 2, poly(F3, [0, 0, 1]))

    def test_irreducibility_exhaustive_degree_le_4(self):
        # Oracle: trial division by all lower-degree monic polynomials;
        # make_extension must accept exactly the irreducible ones.
        for p in (2, 3):
            field = GF(p)
            for deg in (2, 3, 4):
                for f in monics(field, deg):
                    has_factor = has_lower_factor(f, field)
                    assert is_irreducible_mod_p(f) == (not has_factor), f.format()
                    if has_factor:
                        with pytest.raises(NotIrreducible):
                            make_extension(field, f)
                    else:
                        assert make_extension(field, f).degree == deg


def mobius(n):
    sign, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


class TestBenOr:
    @pytest.mark.parametrize("p, top", [(2, 6), (3, 6), (5, 5)])
    def test_agrees_with_rabin_and_gauss(self, p, top):
        """The raw Ben-Or test against Rabin's; over F_2 and F_3 also the raw
        Ben-Or and squarefreeness tests against their boxed references."""
        field = GF(p)
        for n in range(1, top + 1):
            count = squarefree = 0
            for f in monics(field, n):
                verdict = is_irreducible_mod_p(f)
                assert verdict == rabin_is_irreducible(f), f.format()
                count += verdict
                squarefree += is_squarefree(f)
                if p < 5:
                    assert verdict == boxed_ben_or(f), f.format()
                    assert is_squarefree(f) == boxed_is_squarefree(f), f.format()
            # Gauss: (1/n) sum over d | n of mu(d) p^(n/d)
            assert n * count == sum(
                mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0)
            # p^n - p^(n-1) monic squarefree polynomials of degree n >= 2
            assert squarefree == (p ** n - p ** (n - 1) if n > 1 else p ** n)


class TestCyclotomic:
    def test_matches_quotient_recursion(self):
        for m in range(1, 151):
            phi, expected = cyclotomic(m), reference_cyclotomic(m)
            assert phi == expected, m
            assert hash(phi) == hash(expected)
            assert all(type(c.value) is Fraction for c in phi.coeffs)

    def test_phi4(self):
        assert cyclotomic(4) == poly(QQ, [1, 0, 1])

    def test_phi5(self):
        assert cyclotomic(5) == poly(QQ, [1, 1, 1, 1, 1])

    def test_phi8(self):
        assert cyclotomic(8) == poly(QQ, [1, 0, 0, 0, 1])

    def test_phi9(self):
        assert cyclotomic(9) == poly(QQ, [1, 0, 0, 1, 0, 0, 1])


class TestPrimality:
    def test_agrees_with_trial_division_below_1e5(self):
        for n in range(10 ** 5):
            assert is_prime(n) == (n > 1 and all(n % d for d in range(2, isqrt(n) + 1))), n

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051,
                                   318665857834031151167461])
    def test_strong_pseudoprimes_to_fewer_bases_rejected(self, n):
        # strong pseudoprimes to every prime base up to 7, 23 and 37
        assert not is_prime(n)
        with pytest.raises(InvalidFieldParameter, match="is not prime"):
            GF(n)

    def test_large_composite_with_small_factor_is_not_prime(self):
        with pytest.raises(InvalidFieldParameter, match="is not prime"):
            GF(10 ** 25)

    def test_large_prime_accepted_at_once(self):
        assert GF(100000000000000000039).order == 100000000000000000039

    def test_bound_is_rejected(self, monkeypatch):
        bound = fields.MR_BOUND
        assert bound == 1287836182261 * 2575672364521
        with pytest.raises(InvalidFieldParameter):
            GF(bound)
        # the bound passes all 13 bases: only the size check rejects it
        monkeypatch.setattr(fields, "MR_BOUND", bound + 1)
        assert is_prime(bound)


if given is not None:
    # values far past one machine word, of both signs
    BIG = st.integers(-10 ** 40, 10 ** 40)
    # fields whose _sub_mul the Groebner kernel calls: only extension fields
    # have one, since over QQ and GF(p) it reduces on the int values
    SUB_MUL_FIELDS = {
        "GF(3^2)": lambda: finite_field(3, 2),
        "GF(5^3)": lambda: finite_field(5, 3),
    }

    @st.composite
    def elements(draw, field):
        base = field.base
        return field.from_coords([base.from_int(draw(BIG)) for _ in range(field.degree)])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(SUB_MUL_FIELDS)), st.booleans(), st.data())
    def test_sub_mul_is_boxed_a_minus_b_c(name, cancel, data):
        """The Groebner kernel's fused update a - b*c on raw values equals
        the boxed arithmetic, hash included, and is None exactly when the
        boxed result is zero; ``cancel`` draws a = b*c."""
        field = SUB_MUL_FIELDS[name]()
        b, c = data.draw(elements(field)), data.draw(elements(field))
        a = b * c if cancel else data.draw(elements(field))
        expected = a - b * c
        value = field._sub_mul(a.value, b.value, c.value)
        if not expected:
            assert value is None
            return
        assert value is not None
        assert FieldElement(field, value) == expected
        assert hash(FieldElement(field, value)) == hash(expected)
