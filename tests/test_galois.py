from math import gcd

import pytest

from galdescent import galois
from galdescent.errors import NotARoot, NotClosed, NotFiniteBase, RankDeficient
from galdescent.extension import ExtensionField, finite_field, make_extension
from galdescent.fields import QQ
from galdescent.galois import (
    GaloisGroup,
    check_fixed_field,
    cyclotomic_field,
    cyclotomic_group,
    dedekind_check,
    frobenius_group,
    verify_automorphism,
)
from galdescent.unipoly import UniPoly
from helpers import element_named


def qi_field():
    return make_extension(QQ, UniPoly.from_ints(QQ, [1, 0, 1]), irreducible=True)


def frob_name(i):
    return "id" if i == 0 else ("frob" if i == 1 else f"frob{i}")


def cyclo_name(a):
    return "id" if a == 1 else f"s{a}"


def check_axioms(group):
    """The identity law and associativity on every entry of the table."""
    n, e, table = group.order, group.identity_index, group.table
    for i in range(n):
        assert table[e][i] == i == table[i][e]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert table[table[i][j]][k] == table[i][table[j][k]]


def reference_group(ext, named_images):
    """The construction without generators, kept as a reference: verify
    every element, close the list, then check the group axioms."""
    autos = [verify_automorphism(ext, image, name) for name, image in named_images]
    group = GaloisGroup.close_and_verify(ext, autos)
    check_axioms(group)
    return group


def frobenius_cases():
    for p in (2, 3, 5):
        for n in range(1, 7):
            ext = finite_field(p, n)
            yield frobenius_group(ext), reference_group(
                ext, [(frob_name(i), ext.generator ** (p ** i)) for i in range(n)])


def cyclotomic_cases():
    for m in range(3, 41):
        ext, group = cyclotomic_group(m)
        yield group, reference_group(
            ext, [(cyclo_name(a), ext.generator ** a)
                  for a in range(1, m) if gcd(a, m) == 1])


class TestFrobenius:
    def test_gf9(self):
        F9 = finite_field(3, 2)
        group = frobenius_group(F9)
        assert group.order == 2
        t = F9.generator
        # t^3 = t * t^2 = -t = 2t
        assert group.elements[1].image == t * 2
        assert group.elements[1](t) == t * 2

    def test_gf8_order_3(self):
        F8 = finite_field(2, 3)
        group = frobenius_group(F8)
        assert group.order == 3
        # cyclic structure: frob o frob = frob2
        assert group.compose(1, 1) == 2
        assert group.compose(1, 2) == 0

    def test_prime_field_trivial(self):
        F5 = finite_field(5, 1)
        group = frobenius_group(F5)
        assert group.order == 1

    def test_rejects_rational_base(self):
        with pytest.raises(NotFiniteBase):
            frobenius_group(qi_field())


class TestCyclotomic:
    def test_m4_is_conjugation(self):
        ext, group = cyclotomic_group(4)
        assert ext.degree == 2
        assert group.order == 2
        i = ext.generator
        assert group.elements[1](i) == -i

    def test_m5_cyclic_order_4(self):
        ext, group = cyclotomic_group(5)
        assert group.order == 4
        # x -> x^2 generates: check its powers hit everything
        g = element_named(group, "s2")
        seen = {group.identity_index}
        k = g
        for _ in range(4):
            seen.add(k)
            k = group.compose(k, g)
        assert len(seen) == 4

    def test_m8_klein_four(self):
        ext, group = cyclotomic_group(8)
        assert group.order == 4
        for i in range(4):
            assert group.compose(i, i) == group.identity_index


class TestGeneratedGroups:
    @pytest.mark.parametrize("cases", [frobenius_cases, cyclotomic_cases])
    def test_same_group_as_reference(self, cases):
        for group, reference in cases():
            assert [s.name for s in group.elements] == [s.name for s in reference.elements]
            assert [s.image for s in group.elements] == [s.image for s in reference.elements]
            assert list(group.table) == list(reference.table)
            assert group.inverse == reference.inverse
            assert group.is_full and reference.is_full
            check_axioms(group)

    def test_verifies_generators_only(self, monkeypatch):
        calls = []

        def counted(ext, image, name="sigma"):
            calls.append(name)
            return verify_automorphism(ext, image, name)

        monkeypatch.setattr(galois, "verify_automorphism", counted)
        for p, n in ((2, 6), (3, 4), (5, 2)):
            group = frobenius_group(finite_field(p, n))
            assert calls == ["frob"] and group.generator_indices == (1,)
            calls.clear()
        assert frobenius_group(finite_field(3, 1)).generator_indices == (0,)
        assert calls == []
        # (Z/8)^x is a Klein four group: s3 leaves s5 unreached, s7 = s3 s5
        _, group = cyclotomic_group(8)
        assert calls == ["s3", "s5"] and group.generator_indices == (1, 2)
        calls.clear()
        # 2 is a primitive root mod 101
        _, group = cyclotomic_group(101)
        assert calls == ["s2"] and group.order == 100

    def test_wrong_law_raises(self):
        F8 = finite_field(2, 3)
        with pytest.raises(NotClosed):
            galois._generated_group(
                F8, range(3), lambda i, j: (i - j) % 3, frob_name,
                lambda i: F8.generator ** (2 ** i))
        # a cyclic law on the labels of the Klein four group (Z/8)^x:
        # s3 o s3 is the identity, where the law predicts s5
        ext = cyclotomic_field(8)
        log = {1: 0, 3: 1, 5: 2, 7: 3}
        with pytest.raises(NotClosed, match="s3 o s3"):
            galois._generated_group(
                ext, [1, 3, 5, 7], lambda a, b: [1, 3, 5, 7][(log[a] + log[b]) % 4],
                cyclo_name, lambda a: ext.generator ** a)


class TestVerifyAutomorphism:
    def test_conjugation_valid(self):
        Qi = qi_field()
        auto = verify_automorphism(Qi, -Qi.generator, "conj")
        assert auto(Qi.generator) == -Qi.generator

    def test_not_a_root(self):
        Qi = qi_field()
        with pytest.raises(NotARoot):
            verify_automorphism(Qi, Qi.one)

    def test_frobenius_image_gf9(self):
        F9 = finite_field(3, 2)
        auto = verify_automorphism(F9, F9.generator * 2, "frob")
        assert auto(F9.generator) == F9.generator * 2

    @pytest.mark.parametrize("m, a, products", [(1000, 3, 12), (101, 2, 100), (5, 2, 4)])
    def test_root_check_multiplies_on_the_nonzero_terms(self, monkeypatch, m, a, products):
        """The root check evaluates the modulus on its nonzero terms.  For
        the generator t -> t^3 of Aut(Cyclo(1000)/Q), Phi_1000 = t^400 -
        t^300 + t^200 - t^100 + 1 takes 12 extension products: 8 for t^100
        (6 squarings and 2 products for the other set bits), computed once,
        and one per lower term.  Dense Horner over all 401
        coefficients took 400.  A dense modulus such as Phi_101 or Phi_5
        takes one product per term, as before."""
        ext = cyclotomic_field(m)
        image = ext.generator ** a
        count, per_root_check = [0], []
        multiply, evaluate = ExtensionField._mul, UniPoly.evaluate

        def counted_multiply(field, x, y):
            count[0] += 1
            return multiply(field, x, y)

        def counted_evaluate(poly, point):
            before = count[0]
            value = evaluate(poly, point)
            per_root_check.append(count[0] - before)
            return value

        monkeypatch.setattr(ExtensionField, "_mul", counted_multiply)
        monkeypatch.setattr(UniPoly, "evaluate", counted_evaluate)
        verify_automorphism(ext, image, f"s{a}")
        assert per_root_check == [products]


class TestUserGroups:
    def test_closure_required(self):
        ext, group = cyclotomic_group(5)
        with pytest.raises(NotClosed):
            GaloisGroup.close_and_verify(ext, [group.elements[0], group.elements[1]])

    def test_explicit_sqrt2_group(self):
        K = make_extension(QQ, UniPoly.from_ints(QQ, [-2, 0, 1]), irreducible=True)
        ident = verify_automorphism(K, K.generator, "id")
        conj = verify_automorphism(K, -K.generator, "conj")
        group = GaloisGroup.close_and_verify(K, [ident, conj])
        assert group.order == 2


class TestFixedField:
    def test_qi_full_group(self):
        ext, group = cyclotomic_group(4)
        basis = check_fixed_field(group)
        assert len(basis) == 1
        assert basis[0] == ext.one or basis[0] * basis[0].inverse() == ext.one

    def test_trivial_subgroup(self):
        ext, group = cyclotomic_group(4)
        sub = group.subgroup([group.identity_index])
        assert len(check_fixed_field(sub)) == 2

    def test_gf81_order2_subgroup(self):
        F81 = finite_field(3, 4)
        group = frobenius_group(F81)
        sub = group.subgroup([2])  # generated by frob^2
        assert sub.order == 2
        basis = check_fixed_field(sub)
        assert len(basis) == 2
        # the fixed elements form the subfield GF(9): all satisfy a^9 = a
        for b in basis:
            assert b ** 9 == b

    def test_fundamental_theorem_spot_check(self):
        F64 = finite_field(2, 6)
        group = frobenius_group(F64)
        for gen, expected_order in ((1, 6), (2, 3), (3, 2)):
            sub = group.subgroup([gen])
            assert sub.order == expected_order
            assert len(check_fixed_field(sub)) * sub.order == 6


class TestDedekind:
    def test_qi(self):
        ext, group = cyclotomic_group(4)
        result = dedekind_check(group)
        assert result.rank == 4

    def test_gf9(self):
        group = frobenius_group(finite_field(3, 2))
        assert dedekind_check(group).rank == 4

    def test_trivial_extension(self):
        group = frobenius_group(finite_field(3, 1))
        assert dedekind_check(group).rank == 1

    def test_subgroup_rejected(self):
        group = frobenius_group(finite_field(3, 4))
        with pytest.raises(RankDeficient):
            dedekind_check(group.subgroup([2]))

    def test_degrees_up_to_six(self):
        for p in (2, 3, 5):
            for n in range(2, 7):
                group = frobenius_group(finite_field(p, n))
                assert dedekind_check(group).rank == n * n
        for m in (3, 4, 5, 7, 8, 9):
            _, group = cyclotomic_group(m)
            n = group.ext.degree
            assert dedekind_check(group).rank == n * n
