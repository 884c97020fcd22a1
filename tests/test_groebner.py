import math
import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import count, product
from operator import le, sub

import pytest

from galdescent import groebner
from galdescent.errors import Budget, BudgetExceeded, FieldMismatch
from galdescent.extension import make_extension
from galdescent.fields import GF, QQ, FieldElement
from galdescent.galois import cyclotomic_field, verify_automorphism
from galdescent.groebner import (
    Ideal,
    apply_semilinear,
    buchberger,
    eliminate,
    ideal_equal,
    normal_form,
)
from galdescent.multipoly import GREVLEX, LEX, MultiPolynomial, _monomial_mul, block_order
from galdescent.unipoly import UniPoly

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a test extra: the pinned reference cases still run without it
    given = None


def ring(field, names):
    return MultiPolynomial.ring_vars(field, names)


def qi_field():
    return make_extension(QQ, UniPoly.from_ints(QQ, [1, 0, 1]), irreducible=True)


class TestBuchberger:
    def test_single_variable_generator(self):
        x, y = ring(QQ, ("x", "y"))
        basis = buchberger([x], LEX)
        assert basis == [x]

    def test_circle_and_line(self):
        x, y = ring(QQ, ("x", "y"))
        basis = buchberger([x * x + y * y - 1, x - y], LEX)
        # reduced monic basis; same ideal as {x - y, 2y^2 - 1}
        half = MultiPolynomial.constant(QQ, ("x", "y"), QQ.from_fraction(1, 2))
        assert basis == [y * y - half, x - y]
        I = Ideal(QQ, ("x", "y"), [x * x + y * y - 1, x - y])
        J = Ideal(QQ, ("x", "y"), [x - y, 2 * y * y - 1])
        assert ideal_equal(I, J)

    def test_unit_ideal(self):
        x, y = ring(QQ, ("x", "y"))
        one = MultiPolynomial.constant(QQ, ("x", "y"), 1)
        assert buchberger([one], LEX) == [one]
        assert Ideal(QQ, ("x", "y"), [one]).is_unit_ideal()

    def test_budget(self):
        names = tuple("abcdefg")
        vs = ring(GF(7), names)
        gens = [vs[i] ** 3 + vs[(i + 1) % 7] * vs[(i + 2) % 7] + 1 for i in range(7)]
        with pytest.raises(BudgetExceeded):
            buchberger(gens, LEX, budget=Budget(5))


def katsura(n, field):
    """Katsura-n with its relations in the order of the benchmark documents:
    u0 + 2(u1 + ... + un) - 1, then for m < n the sum over l in [-n, n] of
    u_|l| u_|m-l|, minus u_m."""
    names = tuple(f"u{i}" for i in range(n + 1))
    u = ring(field, names)
    zero = MultiPolynomial.zero(field, names)
    relations = [u[0] + sum((2 * v for v in u[1:]), zero) - 1]
    for m in range(n):
        total = sum((u[abs(l)] * u[abs(m - l)] for l in range(-n, n + 1)
                     if abs(m - l) <= n), zero)
        relations.append(total - u[m])
    return relations


def swap_elimination_generators():
    """The ideal that the Frobenius-swap descent over GF(9) eliminates x and
    y from, in the variables x, y, a0, a1, b0, b1."""
    F9 = make_extension(GF(3), UniPoly.from_ints(GF(3), [1, 0, 1]))
    t = F9.generator
    x, y, a0, a1, b0, b1 = ring(F9, ("x", "y", "a0", "a1", "b0", "b1"))
    return [x * y + 2, 2 * x + 2 * y + a0, 2 * t * x + t * y + a1,
            2 * x + 2 * y + b0, t * x + 2 * t * y + b1]


def gf3_cubics():
    """Three cubics over GF(3).  A reduction that let an element of the new
    generator reduce at a signature above the pair's gave a five-element
    grevlex basis; the reduced basis has six."""
    x, y, z = ring(GF(3), ("x", "y", "z"))
    return [2 * x * x * z + 2 * x * y, x * y * y + z + 2, 2 * y ** 3 + 2 * x * z + 2 * z * z]


def gf7_unit_cubics():
    """Four cubics over GF(7) that span the unit ideal.  Under lex, dropping
    each remainder that an element of equal signature top-reduces gave a
    basis of three elements: the rewrite criterion then drops pairs of the
    multiples of that signature that no other pair stands for."""
    x, y, z = ring(GF(7), ("x", "y", "z"))
    return [y * y * z + z ** 3 + 6 * z * z + 6, 3 * y ** 3 + x * z * z + x * z + 2 * z,
            6 * x * y * y + 6 * y * z * z + 3 * x * x + 3 * x * z,
            2 * x * x * y + 2 * x * y * z + y * z * z]


def qq_more_steps():
    """Four polynomials over QQ whose block(2) basis takes the signature
    engine 6 reduction steps and the reference 5."""
    x, y, z = ring(QQ, ("x", "y", "z"))
    return [2 * y * y, 2 * y * z, 3 * x ** 3 + x * y * y, -x + 1]


def gf7_more_steps():
    """Three polynomials over GF(7) whose lex basis takes the signature
    engine 6 reduction steps and the reference 4."""
    x, y, z = ring(GF(7), ("x", "y", "z"))
    return [x * y * y, 2 * y * z + 3 * y, 6 * x ** 3 + 6 * x * z * z]


def gf3_zero_reductions():
    """Four cubics over GF(3) that are not a regular sequence, so some
    S-pairs reduce to zero under grevlex."""
    x, y, z = ring(GF(3), ("x", "y", "z"))
    return [2 * z ** 3 + x * y, y * z + 2 * x, 2 * y * y * z + z ** 3 + 2 * x * x + 2 * x,
            2 * x ** 3 + 2 * x * x * y + x]


class TestReductionSequence:
    """The pair and term selection fixes how many reduction steps a basis
    costs, and so what ``--budget`` allows; these counts pin it."""

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=["gf32003", "qq"])
    # Katsura-5 has pairs of equal signature, and popping them last in,
    # first out would take 549 steps
    @pytest.mark.parametrize("n,steps,size", [(3, 43, 7), (4, 146, 13), (5, 543, 22)])
    def test_katsura_steps(self, field, n, steps, size):
        budget = Budget(10 ** 6)
        basis = buchberger(katsura(n, field), GREVLEX, budget)
        assert budget.spent == steps
        assert len(basis) == size

    def test_block_order_elimination_steps(self):
        budget = Budget(10 ** 6)
        basis = buchberger(swap_elimination_generators(), block_order(2), budget)
        assert budget.spent == 17
        assert len(basis) == 5

    def s_pair_remainders(self, monkeypatch):
        """The list that collects the remainder of each S-pair: only
        S-pairs reduce under a signature bound."""
        reduce, remainders = groebner._reduce, []

        def recorded(*args, bound=None, **kwargs):
            remainder, den = reduce(*args, bound=bound, **kwargs)
            if bound is not None:
                remainders.append(remainder)
            return remainder, den

        monkeypatch.setattr(groebner, "_reduce", recorded)
        return remainders

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=["gf32003", "qq"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_no_s_pair_of_katsura_reduces_to_zero(self, monkeypatch, field, n):
        # Katsura-n is a regular sequence, so the signature criteria drop
        # every S-pair that would reduce to zero
        remainders = self.s_pair_remainders(monkeypatch)
        buchberger(katsura(n, field), GREVLEX)
        assert remainders and all(remainders)

    def test_syzygy_criterion_steps(self, monkeypatch):
        # a signature that reduced to zero drops the pairs at its multiples;
        # without that, this basis would take 30 steps
        remainders = self.s_pair_remainders(monkeypatch)
        budget = Budget(10 ** 6)
        basis = buchberger(gf3_zero_reductions(), GREVLEX, budget)
        assert budget.spent == 19
        assert len(basis) == 3
        assert not all(remainders)

    @pytest.mark.parametrize("field", [GF(32003), QQ], ids=["gf32003", "qq"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_relation_order_and_scale_change_nothing(self, field, n):
        # the generators enter sorted by leading monomial, each made monic
        gens = katsura(n, field)
        plain = Budget()
        basis = buchberger(gens, GREVLEX, plain)
        rng = random.Random(n)
        for _ in range(2):
            scales = [field.from_int(rng.choice([-3, -2, 2, 5, 7])) for _ in gens]
            shuffled = [g * c for g, c in zip(rng.sample(gens, len(gens)), scales)]
            budget = Budget()
            assert buchberger(shuffled, GREVLEX, budget) == basis
            assert budget.spent == plain.spent


# The reference engine keeps the division algorithm as it was before basis
# elements were made monic on entry and monomials were packed into ints:
# every normal form, S-polynomial and inter-reduction divides by leading
# coefficients itself, on exponent tuples, so it shares no normalisation or
# monomial encoding with the engine under test.

def _monomial_divides(a, b):
    return all(map(le, a, b))


def _monomial_div(a, b):
    return tuple(map(sub, a, b))


def _monomial_lcm(a, b):
    return tuple(map(max, a, b))


def heap_key(order, exps):
    """Min-first key: ascending ``heap_key`` is descending ``order.key``, so
    a ``heapq`` of these pops the largest monomial first."""
    if order.kind == "lex":
        return tuple([-e for e in exps])
    if order.kind == "grevlex":
        return (-sum(exps), *exps[::-1])
    head, tail = exps[: order.split], exps[order.split:]
    return (-sum(head), *head[::-1], -sum(tail), *tail[::-1])


def reference_normal_form(poly, basis, order=GREVLEX, budget=None):
    """Fully reduced remainder of ``poly`` modulo a Groebner basis, by the
    classical division algorithm: the leading term of the working polynomial
    is either cancelled against a basis element or moved to the remainder."""
    if poly.is_zero or not basis:
        return poly
    budget = budget or Budget()
    field, variables = poly.field, poly.variables
    leading_data = []
    for g in basis:
        lt, lc = g.leading(order)
        leading_data.append((lt, lc.inverse(), g))
    remainder = {}
    work = dict(poly.terms)
    # every monomial of ``work`` is in the heap; entries whose term has since
    # cancelled are skipped when popped.  Reduction only adds terms below the
    # one it cancels, so a popped monomial never re-enters ``work``.
    heap = [(heap_key(order, e), e) for e in work]
    heapify(heap)
    while heap:
        exps = heappop(heap)[1]
        coeff = work.pop(exps, None)
        if coeff is None:
            continue
        for lt, lc_inv, g in leading_data:
            if _monomial_divides(lt, exps):
                budget.spend()
                shift = _monomial_div(exps, lt)
                factor = coeff * lc_inv
                for ge, gc in g.terms.items():
                    e = _monomial_mul(shift, ge)
                    if e == exps:
                        continue
                    prev = work.get(e)
                    val = (prev - factor * gc) if prev is not None else -(factor * gc)
                    if val:
                        if prev is None:
                            heappush(heap, (heap_key(order, e), e))
                        work[e] = val
                    elif prev is not None:
                        del work[e]
                break
        else:
            remainder[exps] = coeff
    return MultiPolynomial(field, variables, remainder)


def reference_s_polynomial(f, lt_f, g, lt_g):
    lcm = _monomial_lcm(lt_f, lt_g)
    mf = MultiPolynomial(f.field, f.variables,
                         {_monomial_div(lcm, lt_f): f.terms[lt_f].inverse()})
    mg = MultiPolynomial(g.field, g.variables,
                         {_monomial_div(lcm, lt_g): g.terms[lt_g].inverse()})
    return mf * f - mg * g


def reference_reduce_basis(basis, leads, order, budget):
    # minimalize: LT(h) | LT(g) forces LT(h) <= LT(g), so an ascending sweep
    # keeping only elements whose LT no kept LT divides is complete
    ordered = sorted(zip(leads, basis), key=lambda p: order.key(p[0]))
    kept, kept_leads = [], []
    for lt, g in ordered:
        if not any(_monomial_divides(h, lt) for h in kept_leads):
            kept.append(g)
            kept_leads.append(lt)
    # full reduction keeps each minimal leading term, so ``reduced`` stays
    # in ascending order
    reduced = []
    for i, (lt, g) in enumerate(zip(kept_leads, kept)):
        others = kept[:i] + kept[i + 1:]
        r = reference_normal_form(g, others, order, budget) if others else g
        reduced.append(r * r.terms[lt].inverse())
    return reduced


def reference_buchberger(generators, order=GREVLEX, budget=None):
    """Buchberger's algorithm with the coprime discard as its only pair
    criterion: the engine as it was before the Gebauer-Moeller update."""
    basis = [g for g in generators if not g.is_zero]
    if not basis:
        return []
    budget = budget or Budget()
    leads = [g.leading(order)[0] for g in basis]
    # pairs pop smallest lcm first; the insertion counter breaks ties first
    # in, first out
    pairs = []
    counter = count()

    def add_pair(i, j):
        lcm = _monomial_lcm(leads[i], leads[j])
        # Buchberger's first criterion: coprime leading monomials reduce to 0
        if lcm != _monomial_mul(leads[i], leads[j]):
            heappush(pairs, (order.key(lcm), next(counter), i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            add_pair(i, j)
    while pairs:
        _, _, i, j = heappop(pairs)
        budget.spend()
        s = reference_s_polynomial(basis[i], leads[i], basis[j], leads[j])
        remainder = reference_normal_form(s, basis, order, budget)
        if not remainder.is_zero:
            basis.append(remainder)
            leads.append(remainder.leading(order)[0])
            k = len(basis) - 1
            for m in range(k):
                add_pair(m, k)
    return reference_reduce_basis(basis, leads, order, budget)


class TestAgainstReference:
    """The signature criteria drop only S-pairs whose regular remainder is
    zero or the work of another pair, and a reduced basis is unique, so the
    basis is the reference's; on these cases it takes no more reduction
    steps than Buchberger's algorithm with the coprime discard alone."""

    CASES = {
        "katsura3_gf32003": (lambda: katsura(3, GF(32003)), GREVLEX),
        "katsura3_qq": (lambda: katsura(3, QQ), GREVLEX),
        "katsura4_gf32003": (lambda: katsura(4, GF(32003)), GREVLEX),
        "katsura4_qq": (lambda: katsura(4, QQ), GREVLEX),
        "swap_gf9": (swap_elimination_generators, block_order(2)),
        "cubics_gf3": (gf3_cubics, GREVLEX),
        "unit_cubics_gf7": (gf7_unit_cubics, LEX),
        "zero_reductions_gf3": (gf3_zero_reductions, GREVLEX),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_basis_in_fewer_steps(self, name):
        make, order = self.CASES[name]
        ours, theirs = Budget(), Budget()
        basis = buchberger(make(), order, ours)
        assert basis == reference_buchberger(make(), order, theirs)
        assert ours.spent <= theirs.spent

    # systems on which the signature engine takes more steps than the
    # reference (3 of 1,900 random systems), for the reference's basis
    MORE_STEPS = {
        "qq_block2": (qq_more_steps, block_order(2), 6, 5),
        "gf7_lex": (gf7_more_steps, LEX, 6, 4),
    }

    @pytest.mark.parametrize("name", sorted(MORE_STEPS))
    def test_same_basis_in_more_steps(self, name):
        make, order, steps, reference_steps = self.MORE_STEPS[name]
        ours, theirs = Budget(), Budget()
        basis = buchberger(make(), order, ours)
        assert basis == reference_buchberger(make(), order, theirs)
        assert (ours.spent, theirs.spent) == (steps, reference_steps)


if given is not None:
    F9, QI = make_extension(GF(3), UniPoly.from_ints(GF(3), [1, 0, 1])), qi_field()
    # field -> the t of coefficients a + b*t: the generator of GF(9) and
    # Q(i), and 0 in QQ and GF(p).  GF(2) and GF(3) make the int loop's
    # values vanish mod p often, and GF(2^61 - 1) pushes its unreduced sums
    # past a machine word.
    FIELDS = {field: field.zero for field in (QQ, GF(2), GF(3), GF(7), GF(32003),
                                              GF(2 ** 61 - 1))}
    FIELDS.update({F9: F9.generator, QI: QI.generator})
    ORDERS = [LEX, GREVLEX, block_order(1), block_order(2)]
    # no nonzero integer in [-5, 5] vanishes in GF(7) or GF(32003)
    INTEGERS = st.sampled_from([c for c in range(-5, 6) if c])
    # (a, b) for a + b*t; a coefficient that vanishes leaves its term out
    PAIRS = st.tuples(st.integers(-5, 5), st.integers(-1, 1))

    def term_dicts(nvars, coefficient, degree=3):
        """Term dicts of one to four terms of degree at most ``degree`` in
        ``nvars`` variables, with coefficients drawn from ``coefficient``."""
        monomial = st.sampled_from([e for e in product(range(degree + 1), repeat=nvars)
                                    if sum(e) <= degree])
        return st.dictionaries(monomial, coefficient, min_size=1, max_size=4)

    @st.composite
    def ideals(draw, fields=(QQ, GF(7), GF(32003)), coefficient=INTEGERS, degree=3):
        """(field, order name, variable names, generator term dicts): up to
        three generators of degree at most ``degree`` in two or three
        variables, with coefficients drawn from ``coefficient``."""
        field = draw(st.sampled_from(fields))
        order = draw(st.sampled_from(["grevlex", "lex"]))
        names = ("x", "y", "z")[: draw(st.integers(2, 3))]
        gens = draw(st.lists(term_dicts(len(names), coefficient, degree),
                             min_size=1, max_size=3))
        return field, order, names, gens

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(ideals(list(FIELDS), PAIRS), st.sampled_from(ORDERS), st.data())
    def test_reduced_basis_matches_reference(case, order, data):
        # the drawn order replaces the case's, so block orders occur too
        field, _, names, gens = case
        probes = data.draw(st.lists(term_dicts(len(names), PAIRS), min_size=1, max_size=3))
        t = FIELDS[field]
        polys, probes = ([MultiPolynomial(field, names,
                                          {e: field.from_int(a) + b * t
                                           for e, (a, b) in g.items()})
                          for g in dicts] for dicts in (gens, probes))
        basis = buchberger(polys, order)
        assert basis == reference_buchberger(polys, order)
        # the raw-value reduction against the reference division: on the
        # reduced basis, on a non-monic copy of it and on the generators
        # themselves, for the same remainder, hash and number of steps
        # 2 + t is nonzero in every field but GF(2), whose only unit is 1
        scale = (field.from_int(2) + t) or field.one
        divisors = [basis, [g * scale for g in basis], [g for g in polys if not g.is_zero]]
        for divisor in divisors:
            for p in probes:
                ours, theirs = Budget(), Budget()
                remainder = normal_form(p, divisor, order, ours)
                expected = reference_normal_form(p, divisor, order, theirs)
                assert remainder == expected
                assert hash(remainder) == hash(expected)
                assert ours.spent == theirs.spent

    # numerators and denominators far past one machine word, so that the
    # fraction-free reduction over QQ scales its work by d / gcd(w, d) and
    # divides out a content
    RATIONALS = st.builds(Fraction, st.integers(1 - 2 ** 80, 2 ** 80 - 1).filter(bool),
                          st.integers(1, 2 ** 40 - 1))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(ideals([QQ], RATIONALS, degree=2), st.sampled_from(ORDERS), st.data())
    def test_rational_reduction_matches_reference(case, order, data):
        """Over QQ the engine reduces on int numerators over one
        denominator; the reference divides Fractions.  Bases, remainders and
        memberships agree, with equal hashes, and normal forms take the
        reference's steps.  The steps of the basis itself are not compared:
        on some systems the signature engine takes more than the reference
        (see ``TestAgainstReference.MORE_STEPS``)."""
        _, _, names, gens = case
        probes = data.draw(st.lists(term_dicts(len(names), RATIONALS), min_size=1, max_size=3))
        polys, probes = ([MultiPolynomial(QQ, names, {e: QQ.from_int(c) for e, c in g.items()})
                          for g in dicts] for dicts in (gens, probes))
        basis = buchberger(polys, order)
        expected = reference_buchberger(polys, order)
        assert basis == expected
        assert hash(tuple(basis)) == hash(tuple(expected))
        # the reduced basis, copies scaled by 3/7 and by a drawn rational,
        # and the generators themselves
        scale = QQ.from_int(data.draw(RATIONALS))
        divisors = [basis, [g * QQ.from_fraction(3, 7) for g in basis],
                    [g * scale for g in basis], polys]
        for divisor in divisors:
            for p in probes:
                ours, theirs = Budget(), Budget()
                remainder = normal_form(p, divisor, order, ours)
                expected = reference_normal_form(p, divisor, order, theirs)
                assert remainder == expected
                assert hash(remainder) == hash(expected)
                assert ours.spent == theirs.spent
        ideal = Ideal(QQ, names, polys)
        ideal.groebner(order)
        for p in probes + [g * p for g, p in zip(polys, probes)]:
            assert ideal.contains(p) == reference_normal_form(p, basis, order).is_zero

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(ideals([QQ], RATIONALS, degree=2), st.sampled_from(ORDERS), st.data())
    def test_rational_elements_are_in_lowest_terms(case, order, data):
        """Over QQ ``_element`` makes each element (lt, d, tail) from int
        numerators: the generators, every remainder that enters the basis,
        the basis elements that reduce each other, and a non-monic divisor
        of a normal form.  d > 0, and d and the tail's numerators are
        coprime."""
        _, _, names, gens = case
        polys = [MultiPolynomial(QQ, names, {e: QQ.from_int(c) for e, c in g.items()})
                 for g in gens]
        probe = MultiPolynomial(QQ, names, {e: QQ.from_int(c) for e, c in
                                            data.draw(term_dicts(len(names), RATIONALS)).items()})
        element, elements = groebner._element, []

        def recorded(*args):
            made = element(*args)
            elements.append(made)
            return made

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(groebner, "_element", recorded)
            basis = buchberger(polys, order)
            normal_form(probe, [g * QQ.from_fraction(-3, 7) for g in basis] or polys, order)
        assert elements
        for _, d, tail in elements:
            numerators = [n for _, n in tail]
            assert type(d) is int and d > 0
            assert all(type(n) is int for n in numerators)
            assert math.gcd(d, *numerators) == 1


def max_row(order, exps):
    """The largest field of ``exps`` packed under ``order``: each key row is
    a sum of exponents, and the longest sums are the exponent itself (lex),
    the total degree (grevlex) or the degree of either block."""
    if order.kind == "lex":
        return max(exps)
    if order.kind == "grevlex":
        return sum(exps)
    return max(sum(exps[: order.split]), sum(exps[order.split:]))


class TestPacking:
    """A packed monomial is one int whose comparison, divisibility test and
    addition stand for the order's key, componentwise <= and the product of
    exponent tuples; the guard bits flag a field that outgrew its width."""

    @pytest.mark.parametrize("width", [3, groebner._WIDTH])
    @pytest.mark.parametrize("order", [LEX, GREVLEX, block_order(1),
                                       block_order(2), block_order(3)],
                             ids=repr)
    def test_packing_follows_the_order(self, order, width):
        rng = random.Random(41)
        packing = groebner._packing(order, 4, width)
        pack, guard = packing.pack, packing.guard
        monomials = sorted({tuple(rng.randrange(6) for _ in range(4))
                            for _ in range(120)})
        monomials = [e for e in monomials if sum(e) < 2 ** width]
        rng.shuffle(monomials)
        packed = [pack(e) for e in monomials]
        for a, pa in zip(monomials, packed):
            assert packing.unpack(pa) == a
            for b, pb in zip(monomials, packed):
                assert (pa < pb) == (order.key(a) < order.key(b))
                assert (not (pb - pa) & guard) == all(map(le, a, b))
                product = _monomial_mul(a, b)
                if sum(product) < 2 ** width:
                    assert pa + pb == pack(product)
                # the sum is exact, and a field past the width sets its guard bit
                assert bool((pa + pb) & guard) == (max_row(order, product) >= 2 ** width)


class TestOverflow:
    """Started at a width too narrow for the computation, the engine reruns
    at double width with the budget as on entry, so bases, remainders and
    step counts are those of the default width."""

    WIDTH = 2

    def katsura_case(self):
        gens = katsura(4, GF(32003))
        u = ring(GF(32003), gens[0].variables)
        probes = [u[0] ** 3 * u[4] - u[1], u[1] ** 2 * u[2] ** 2 + u[3], u[4] ** 5]
        return gens, GREVLEX, probes

    def lex_reduction_case(self):
        # reducing x^k by x - y^5 alone leaves y^(5k)
        x, y, z = ring(QQ, ("x", "y", "z"))
        return [x - y ** 5, y ** 3 - z], LEX, [x ** 4, x ** 3 * y ** 2 + z, x * y * z + x ** 2]

    def lex_s_polynomial_case(self):
        # the S-polynomial of the generators is 1 - y^16
        x, y = ring(QQ, ("x", "y"))
        return [x - y ** 15, x * y - 1], LEX, [x ** 2, x * y ** 3 + y]

    def run(self, gens, order, probes):
        """(basis, remainders modulo it and modulo the first generator,
        Ideal.contains answers, steps spent)."""
        budget = Budget()
        basis = buchberger(gens, order, budget)
        remainders = [normal_form(p, divisor, order, budget)
                      for divisor in (basis, gens[:1]) for p in probes]
        ideal = Ideal(gens[0].field, gens[0].variables, gens)
        ideal.groebner(order, budget)
        members = [ideal.contains(p, budget) for p in probes + [g * p for g, p in zip(gens, probes)]]
        return basis, remainders, members, budget.spent

    def narrow(self, monkeypatch):
        """Start every call at ``WIDTH`` value bits; the list collects the
        widths that the engine packs at."""
        widths = []
        packing = groebner._packing

        def recorded(order, n, width):
            widths.append(width)
            return packing(order, n, width)

        monkeypatch.setattr(groebner, "_WIDTH", self.WIDTH)
        monkeypatch.setattr(groebner, "_packing", recorded)
        return widths

    @pytest.mark.parametrize("case", ["katsura_case", "lex_reduction_case",
                                      "lex_s_polynomial_case"])
    def test_rerun_matches_default_width(self, monkeypatch, case):
        gens, order, probes = getattr(self, case)()
        expected = self.run(gens, order, probes)
        widths = self.narrow(monkeypatch)
        assert self.run(gens, order, probes) == expected
        # the narrow start overflowed, and a rerun widened it
        assert self.WIDTH in widths and max(widths) > self.WIDTH

    def test_eliminate_under_block_order(self, monkeypatch):
        x, y, z = ring(QQ, ("x", "y", "z"))
        swap = swap_elimination_generators()
        cases = [(Ideal(QQ, ("x", "y", "z"), [x * x - y, x * y - z]), ("y", "z")),
                 (Ideal(swap[0].field, swap[0].variables, swap), ("a0", "a1", "b0", "b1"))]
        expected = []
        for ideal, keep in cases:
            budget = Budget()
            expected.append((eliminate(Ideal(ideal.field, ideal.variables, ideal.generators),
                                       keep, budget).generators, budget.spent))
        widths = self.narrow(monkeypatch)
        for (ideal, keep), want in zip(cases, expected):
            budget = Budget()
            assert (eliminate(ideal, keep, budget).generators, budget.spent) == want
        assert max(widths) > self.WIDTH

    def test_rational_lex_case_overflows_the_default_width(self, monkeypatch):
        # reducing x^2 - (3/7) y^30000 by x - (33/35) y^30001 reaches
        # y^60002, past 15-bit fields; the rerun at 30 bits takes the steps
        # of a first run at 30 bits
        x, y = ring(QQ, ("x", "y"))
        gens = [x ** 2 - QQ.from_fraction(3, 7) * y ** 30000, x * y - QQ.from_fraction(5, 11)]
        probes = [x ** 3, x * y ** 2 + QQ.from_fraction(2, 9) * x]
        width = groebner._WIDTH
        widths = self.narrow(monkeypatch)
        monkeypatch.setattr(groebner, "_WIDTH", width)
        default = self.run(gens, LEX, probes)
        assert width in widths and max(widths) == 2 * width
        widths.clear()
        monkeypatch.setattr(groebner, "_WIDTH", 2 * width)
        assert self.run(gens, LEX, probes) == default
        assert set(widths) == {2 * width}

    def test_signature_overflow_reruns(self, monkeypatch):
        # no polynomial of this computation outgrows 4-bit fields, but the
        # signatures for x^8 climb y^2, y^4, ..., y^16
        x, y = ring(QQ, ("x", "y"))
        gens, probes = [x ** 8, x * y ** 2 - y], [x ** 9 + y, x ** 3 * y ** 2 - x]
        expected = self.run(gens, GREVLEX, probes)
        widths = self.narrow(monkeypatch)
        monkeypatch.setattr(groebner, "_WIDTH", 4)
        assert self.run(gens, GREVLEX, probes) == expected
        assert widths[:2] == [4, 8]

    def memberships(self, ideal, probes):
        """(answer, steps) of each membership test, every probe asked twice
        so that the second pass runs on the cached packing and its index."""
        answers = []
        for p in probes + probes:
            budget = Budget()
            answers.append((ideal.contains(p, budget), budget.spent))
        return answers

    def test_membership_at_a_narrow_width_matches_the_default(self, monkeypatch):
        # the probes fit 3-bit fields until u0^4 u1^4 (degree 8), which
        # overflows them; the rerun packs the basis afresh at 6 bits, with
        # a fresh divisor index
        gens, order, probes = self.katsura_case()
        u = ring(GF(32003), gens[0].variables)
        probes = probes[:2] + [g * p for g, p in zip(gens, probes)]
        probes += [u[0] ** 4 * u[1] ** 4 - u[2], gens[1] * u[3] ** 6] + probes
        ideal = Ideal(GF(32003), gens[0].variables, gens)
        ideal.groebner(order)
        expected = self.memberships(ideal, probes)
        widths = self.narrow(monkeypatch)
        monkeypatch.setattr(groebner, "_WIDTH", 3)
        ideal = Ideal(GF(32003), gens[0].variables, gens)
        ideal.groebner(order)
        widths.clear()
        assert self.memberships(ideal, probes) == expected
        assert widths[0] == 3 and max(widths) == 6
        assert any(member for member, _ in expected) and not all(member for member, _ in expected)

    def test_s_polynomial_flags_an_overflowing_term(self):
        # x - y^15 and x*y - 1 fit 4-bit fields, but their S-polynomial
        # 1 - y^16 does not; a later step need not notice the bad term
        packing = groebner._packing(LEX, 2, 4)
        pack = packing.pack
        # over QQ an element is made from int numerators
        f = groebner._element(QQ, pack((1, 0)), {pack((1, 0)): 1, pack((0, 15)): -1})
        g = groebner._element(QQ, pack((1, 1)), {pack((1, 1)): 1, pack((0, 0)): -1})
        with pytest.raises(groebner._Overflow):
            groebner._s_polynomial(f, g, pack((1, 1)), QQ, packing.guard)

    def test_budget_still_binds(self, monkeypatch):
        gens, order, _ = self.katsura_case()
        self.narrow(monkeypatch)
        with pytest.raises(BudgetExceeded):
            buchberger(gens, order, Budget(145))
        budget = Budget(146)
        buchberger(gens, order, budget)
        assert budget.spent == 146


class TestRationalInts:
    """Over QQ the engine stays on int numerators from packing to boxing:
    only ``_box`` and the unpacking of a normal form make ``Fraction``s,
    one per term."""

    def count_fractions(self, monkeypatch):
        """[Fractions made so far, Fractions made before the first ``_box``]."""
        counts, box = [0], groebner._box

        def counted(*args):
            counts[0] += 1
            return Fraction(*args)

        def recorded(*args):
            if len(counts) == 1:
                counts.append(counts[0])
            return box(*args)

        monkeypatch.setattr(groebner, "Fraction", counted)
        monkeypatch.setattr(groebner, "_box", recorded)
        return counts

    def test_one_fraction_per_boxed_tail_term(self, monkeypatch):
        gens = katsura(5, QQ)
        counts = self.count_fractions(monkeypatch)
        basis = buchberger(gens, GREVLEX)
        assert counts == [sum(len(g.terms) - 1 for g in basis), 0]

    def test_one_fraction_per_normal_form_term(self, monkeypatch):
        gens = katsura(4, QQ)
        basis = buchberger(gens, GREVLEX)
        u = ring(QQ, gens[0].variables)
        probe = QQ.from_fraction(5, 3) * u[0] ** 3 * u[4] - QQ.from_fraction(2, 7) * u[1] + 1
        counts = self.count_fractions(monkeypatch)
        remainder = normal_form(probe, basis, GREVLEX)
        assert counts == [len(remainder.terms)] and counts[0] > 1


def linear_reduce_ints(work, den, basis, p, guard, budget, bound=None, regular=None):
    """The int reduction loop as it was before the divisor index: every
    popped term scans the whole basis for its first dividing element that
    the signature bound admits."""
    gcd, remainder = math.gcd, {}
    heap = [-e for e in work]
    heapify(heap)
    while heap:
        exps = -heappop(heap)
        w = work.pop(exps, None)
        if w is None:
            continue
        if p:
            w %= p
            if not w:
                continue
        for lt, d, tail in basis:
            shift = exps - lt
            if not shift & guard:
                if bound is not None and lt in regular and shift + regular[lt] >= bound:
                    continue
                budget.spend()
                if d != 1:
                    k = gcd(w, d)
                    w //= k
                    if k != d:
                        m = d // k
                        den *= m
                        work = {e: v * m for e, v in work.items()}
                        for e in remainder:
                            remainder[e] *= m
                w = -w
                for ge, gn in tail:
                    e = shift + ge
                    prev = work.get(e)
                    if prev is None:
                        heappush(heap, -e)
                        work[e] = w * gn
                    else:
                        prev += w * gn
                        if prev:
                            work[e] = prev
                        else:
                            del work[e]
                break
        else:
            remainder[exps] = w
    if den != 1:
        content = gcd(den, *remainder.values())
        if content != 1:
            den //= content
            remainder = {e: v // content for e, v in remainder.items()}
    return remainder, den


class TestDivisorIndex:
    """The int loop looks up the elements that divide a popped monomial in
    a divisor index instead of scanning the basis, and so reduces by the
    element the scan picks: the same remainder, denominator and steps as
    ``linear_reduce_ints``, also under a signature bound and with one index
    shared while the basis grows by appends."""

    ORDERS = [GREVLEX, LEX, block_order(1), block_order(2)]
    PRIMES = [7, 32003, 0]

    def terms(self, rng, packing, p, degree, size):
        """Packed monomial -> value: a random int mod p, or over QQ (p = 0)
        a nonzero numerator of up to 40 bits."""
        pack = packing.pack
        terms = {}
        for _ in range(size):
            exps = [0, 0, 0]
            for _ in range(rng.randrange(degree + 1)):
                exps[rng.randrange(3)] += 1
            value = rng.randrange(1, p) if p else rng.choice([-1, 1]) * rng.randrange(1, 2 ** 40)
            terms[pack(tuple(exps))] = value
        return terms

    def element(self, rng, packing, p):
        terms = self.terms(rng, packing, p, 3, rng.randrange(1, 5))
        return groebner._element(QQ if p == 0 else GF(p), max(terms), terms)

    def signatures(self, rng, packing, basis):
        """A signature bound, and signatures for about half the elements."""
        pack = packing.pack

        def monomial(degree):
            return pack(tuple(rng.randrange(degree + 1) for _ in range(3)))

        return monomial(4), {lt: monomial(2) for lt, _, _ in basis if rng.random() < 0.5}

    def compare(self, rng, packing, p, basis, index, signed):
        """Reduce one random working polynomial both ways: equal remainders
        (terms in the same order), denominators and steps."""
        work = self.terms(rng, packing, p, 6, rng.randrange(1, 8))
        den = rng.randrange(1, 2 ** 20) if p == 0 else 1
        bound, regular = self.signatures(rng, packing, basis) if signed else (None, None)
        ours, theirs = Budget(), Budget()
        got = groebner._reduce_ints(dict(work), den, basis, p, packing.guard, ours,
                                    bound, regular, index)
        want = linear_reduce_ints(dict(work), den, basis, p, packing.guard, theirs,
                                  bound, regular)
        assert (list(got[0].items()), got[1]) == (list(want[0].items()), want[1])
        assert ours.spent == theirs.spent
        return ours.spent

    @pytest.mark.parametrize("p", PRIMES, ids=["gf7", "gf32003", "qq"])
    @pytest.mark.parametrize("order", ORDERS, ids=repr)
    def test_fresh_index_matches_the_linear_scan(self, order, p):
        rng = random.Random(f"{order!r} {p}")
        packing = groebner._packing(order, 3, groebner._WIDTH)
        spent = 0
        for _ in range(12):
            basis = [self.element(rng, packing, p) for _ in range(rng.randrange(1, 7))]
            for signed in (False, True):
                spent += self.compare(rng, packing, p, basis, {}, signed)
        assert spent

    @pytest.mark.parametrize("p", PRIMES, ids=["gf7", "gf32003", "qq"])
    @pytest.mark.parametrize("order", ORDERS, ids=repr)
    def test_shared_index_matches_the_linear_scan_as_the_basis_grows(self, order, p):
        rng = random.Random(f"shared {order!r} {p}")
        packing = groebner._packing(order, 3, groebner._WIDTH)
        for _ in range(3):
            basis, index, spent = [], {}, 0
            for _ in range(8):
                basis.append(self.element(rng, packing, p))
                for signed in (False, True, False):
                    spent += self.compare(rng, packing, p, basis, index, signed)
            # the index was reused after the basis grew past its entries
            assert spent and any(checked < len(basis) for checked, _ in index.values())


class TestNormalForm:
    def test_ring_mismatch_raises(self):
        # raw values carry no field, so mixing rings must fail up front
        x7, y7 = ring(GF(7), ("x", "y"))
        x5, y5 = ring(GF(5), ("x", "y"))
        (z7,) = ring(GF(7), ("z",))
        with pytest.raises(FieldMismatch, match="different rings"):
            buchberger([x7 - 1, x5 * y5 - 1], LEX)
        with pytest.raises(FieldMismatch, match="different rings"):
            normal_form(y5 + 1, [x7 - y7], LEX)
        with pytest.raises(FieldMismatch, match="different rings"):
            normal_form(z7 + 1, [x7 - y7], LEX)

    def test_member_reduces_to_zero(self):
        x, y = ring(QQ, ("x", "y"))
        basis = buchberger([x * x + y * y - 1, x - y], LEX)
        p = (x * x + y * y - 1) * (x + 3) + (x - y) * y ** 2
        assert normal_form(p, basis, LEX).is_zero

    def test_constant_survives(self):
        x, y = ring(QQ, ("x", "y"))
        basis = buchberger([x - y], LEX)
        c = MultiPolynomial.constant(QQ, ("x", "y"), 7)
        assert normal_form(c, basis, LEX) == c

    def test_x_squared_reduces_to_half(self):
        x, y = ring(QQ, ("x", "y"))
        basis = buchberger([x - y, 2 * y * y - 1], LEX)
        half = MultiPolynomial.constant(QQ, ("x", "y"), QQ.from_fraction(1, 2))
        assert normal_form(x * x, basis, LEX) == half


def qi_generators():
    """Three generators over Q(i) with grevlex leading coefficients i, 1 + i
    and 2; their reduced basis has six elements."""
    Qi = qi_field()
    i = Qi.generator
    x, y, z = ring(Qi, ("x", "y", "z"))
    return [i * x * x + y * y - z, (1 + i) * x * y - y + i, 2 * y * z - i * x + 3]


def random_polys(field, names, coefficients, n, seed):
    rng = random.Random(seed)
    return [MultiPolynomial(field, names,
                            {tuple(rng.randrange(4) for _ in names): rng.choice(coefficients)
                             for _ in range(rng.randrange(1, 6))})
            for _ in range(n)]


class TestMonicOnEntry:
    """Basis elements are made monic once, when they enter the basis, so a
    normal form against a reduced basis inverts nothing, and a non-monic
    basis or generating set gives the same answers as its monic form."""

    def cases(self):
        Qi = qi_field()
        i = Qi.generator
        qi_coefficients = [a + b * i for a in range(-2, 3) for b in range(-2, 3) if a or b]
        F9 = make_extension(GF(3), UniPoly.from_ints(GF(3), [1, 0, 1]))
        names_f9 = ("x", "y", "a0", "a1", "b0", "b1")
        return [(Qi, ("x", "y", "z"), qi_generators(), qi_coefficients),
                (F9, names_f9, swap_elimination_generators(), [c for c in F9.elements() if c])]

    def test_normal_form_against_reduced_basis_inverts_nothing(self, monkeypatch):
        for field, names, gens, coefficients in self.cases():
            basis = Ideal(field, names, gens).groebner()
            polys = random_polys(field, names, coefficients, 10, seed=3)
            calls = []
            inverse = FieldElement.inverse

            def counted(a):
                calls.append(a)
                return inverse(a)

            monkeypatch.setattr(FieldElement, "inverse", counted)
            budget = Budget()
            for p in polys:
                normal_form(p, basis, GREVLEX, budget)
            monkeypatch.undo()
            assert budget.spent > 0
            assert calls == []

    def scaled_cases(self):
        Qi = qi_field()
        return [(QQ, katsura(3, QQ), QQ.from_int(2)),
                (Qi, qi_generators(), 1 + Qi.generator)]

    def test_scaled_basis_gives_the_same_remainders(self):
        for field, gens, factor in self.scaled_cases():
            names = gens[0].variables
            basis = buchberger(gens, GREVLEX)
            scaled = [g * factor for g in basis]
            assert all(g.leading(GREVLEX)[1] == factor for g in scaled)
            coefficients = [field.from_int(c) for c in range(-3, 4) if c]
            for p in random_polys(field, names, coefficients, 20, seed=11):
                assert normal_form(p, scaled, GREVLEX) == normal_form(p, basis, GREVLEX)

    def test_scaled_generators_give_the_same_basis_and_steps(self):
        for field, gens, factor in self.scaled_cases():
            plain, scaled = Budget(), Budget()
            basis = buchberger(gens, GREVLEX, plain)
            assert buchberger([g * factor for g in gens], GREVLEX, scaled) == basis
            assert scaled.spent == plain.spent > 0


class TestIdealEqual:
    def test_syntactic_equality(self):
        x, y = ring(QQ, ("x", "y"))
        I = Ideal(QQ, ("x", "y"), [x * y - 1])
        J = Ideal(QQ, ("x", "y"), [x * y - 1])
        assert ideal_equal(I, J)

    def test_linear_vs_square_over_qi(self):
        Qi = qi_field()
        x, y = ring(Qi, ("x", "y"))
        i = MultiPolynomial.constant(Qi, ("x", "y"), Qi.generator)
        I = Ideal(Qi, ("x", "y"), [x + y + i])
        J = Ideal(Qi, ("x", "y"), [(x + y) ** 2 + 1])
        assert not ideal_equal(I, J)
        # the square does lie inside the linear ideal
        assert I.contains((x + y) ** 2 + 1)
        assert not J.contains(x + y + i)

    def test_redundant_generator(self):
        x, y = ring(QQ, ("x", "y"))
        I = Ideal(QQ, ("x", "y"), [x ** 2, x ** 3])
        J = Ideal(QQ, ("x", "y"), [x ** 2])
        assert ideal_equal(I, J)

    def test_order_independence_corpus(self):
        rng = random.Random(23)
        F5 = GF(5)
        names = ("x", "y", "z")
        count = 0
        while count < 20:
            gens = []
            for _ in range(rng.randrange(1, 4)):
                terms = {}
                for _ in range(rng.randrange(1, 5)):
                    exps = tuple(rng.randrange(3) for _ in names)
                    terms[exps] = F5.from_int(rng.randrange(5))
                gens.append(MultiPolynomial(F5, names, terms))
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            I_lex = Ideal(F5, names, gens)
            I_grev = Ideal(F5, names, gens)
            basis_lex = I_lex.groebner(LEX)
            basis_grev = I_grev.groebner(GREVLEX)
            A = Ideal(F5, names, basis_lex)
            B = Ideal(F5, names, basis_grev)
            A.groebner(LEX)
            B.groebner(GREVLEX)
            assert ideal_equal(A, B)
            count += 1


class TestEliminate:
    def test_parabola_projects_to_zero_ideal(self):
        x, y = ring(QQ, ("x", "y"))
        I = Ideal(QQ, ("x", "y"), [x - y * y])
        assert eliminate(I, ("y",)).generators == ()

    def test_two_lines(self):
        x, y = ring(QQ, ("x", "y"))
        I = Ideal(QQ, ("x", "y"), [x - y, x + y])
        out = eliminate(I, ("y",))
        (g,) = out.generators
        yy = MultiPolynomial.variable(QQ, ("y",), "y")
        assert g == yy

    def test_unit_ideal(self):
        x, y = ring(QQ, ("x", "y"))
        one = MultiPolynomial.constant(QQ, ("x", "y"), 1)
        out = eliminate(Ideal(QQ, ("x", "y"), [one]), ("y",))
        assert out.is_unit_ideal()

    def test_eliminated_generators_in_ideal(self):
        x, y, z = ring(QQ, ("x", "y", "z"))
        I = Ideal(QQ, ("x", "y", "z"), [x * x - y, x * y - z])
        out = eliminate(I, ("y", "z"))
        assert out.generators
        for g in out.generators:
            assert g.variables == ("y", "z")
            lifted = g.rename_ring(("x", "y", "z"), [1, 2])
            assert I.contains(lifted)


class TestApplySemilinear:
    def test_identity(self):
        Qi = qi_field()
        x, y = ring(Qi, ("x", "y"))
        conj = verify_automorphism(Qi, -Qi.generator, "conj")
        p = x * y - 1
        assert apply_semilinear(lambda c: c, {}, p) == p

    def test_conjugate_coefficients(self):
        Qi = qi_field()
        (x,) = ring(Qi, ("x",))
        conj = verify_automorphism(Qi, -Qi.generator, "conj")
        i = Qi.generator
        assert apply_semilinear(conj, {}, i * x) == (-i) * x

    def test_swap_invariance(self):
        Qi = qi_field()
        x, y = ring(Qi, ("x", "y"))
        conj = verify_automorphism(Qi, -Qi.generator, "conj")
        images = {"x": y, "y": x}
        p = x * y - 1
        assert apply_semilinear(conj, images, p) == p

    def test_multiplicative_additive(self):
        rng = random.Random(5)
        F9 = make_extension(GF(3), UniPoly.from_ints(GF(3), [1, 0, 1]))
        frob = verify_automorphism(F9, F9.generator ** 3, "frob")
        names = ("x", "y")
        x, y = ring(F9, names)
        elems = list(F9.elements())
        images = {"x": x + y, "y": x * y - 1}

        def rand_poly():
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                exps = tuple(rng.randrange(3) for _ in names)
                terms[exps] = rng.choice(elems)
            return MultiPolynomial(F9, names, terms)

        for _ in range(10):
            p, q = rand_poly(), rand_poly()
            assert apply_semilinear(frob, images, p * q) == (
                apply_semilinear(frob, images, p) * apply_semilinear(frob, images, q))
            assert apply_semilinear(frob, images, p + q) == (
                apply_semilinear(frob, images, p) + apply_semilinear(frob, images, q))


def reference_transform(poly, coeff_map, images):
    """transform term by term: each term is its mapped coefficient times the
    images, multiplied in one factor at a time, and added to the sum."""
    sample = next(iter(images.values()))
    field, names = sample.field, sample.variables
    images = {name: images[name] if name in images
              else MultiPolynomial.variable(field, names, name) for name in poly.variables}
    acc = MultiPolynomial.zero(field, names)
    for exps, coeff in poly.terms.items():
        term = MultiPolynomial.constant(field, names, coeff_map(coeff))
        for name, e in zip(poly.variables, exps):
            for _ in range(e):
                term = term * images[name]
        acc = acc + term
    return acc


def transform_cases():
    """(field, coefficient map, elements) for each field of the differential."""
    F9 = make_extension(GF(3), UniPoly.from_ints(GF(3), [1, 0, 1]))
    C5 = cyclotomic_field(5)
    z = C5.generator
    return {
        "QQ": (QQ, lambda c: c, [QQ.from_fraction(n, d) for n in range(-4, 5)
                                 for d in (1, 2, 3)]),
        "GF(7)": (GF(7), lambda c: c, list(GF(7).elements())),
        "GF(9)": (F9, verify_automorphism(F9, F9.generator ** 3, "frob"), list(F9.elements())),
        "Cyclo(5)": (C5, verify_automorphism(C5, z * z, "s2"),
                     [C5.zero, C5.one, z, z - 2, z * z * 3 + z, -z ** 3 + 1, z ** 4]),
    }


class TestTransform:
    """transform, with its per-call powers and one term dict, against the
    term-by-term reference."""

    @pytest.mark.parametrize("name", ["QQ", "GF(7)", "GF(9)", "Cyclo(5)"])
    def test_matches_term_by_term_reference(self, name):
        field, sigma, elements = transform_cases()[name]
        rng = random.Random(name)
        source, target = ("x", "y", "z"), ("u", "v")
        for p in random_polys(field, source, elements, 12, rng.random()):
            images = dict(zip(source, random_polys(field, target, elements, 3, rng.random())))
            for coeff_map in (lambda c: c, sigma):
                out = p.transform(coeff_map, images)
                assert out == reference_transform(p, coeff_map, images)
                assert all(out.terms.values())

    @pytest.mark.parametrize("name", ["QQ", "GF(7)", "GF(9)", "Cyclo(5)"])
    def test_cancelling_products(self, name):
        # x^2 - y^2 - 4z maps to 0 under x -> u + v, y -> u - v, z -> uv,
        # and of x^3 + 3xy^2 only 4u^3 + 4v^3 survives
        field, sigma, _ = transform_cases()[name]
        x, y, z = ring(field, ("x", "y", "z"))
        u, v = ring(field, ("u", "v"))
        images = {"x": u + v, "y": u - v, "z": u * v}
        for p, expected in [(x * x - y * y - 4 * z, 0 * u),
                            (x ** 3 + 3 * x * y * y, 4 * u ** 3 + 4 * v ** 3)]:
            for coeff_map in (lambda c: c, sigma):
                out = p.transform(coeff_map, images)
                assert out == expected == reference_transform(p, coeff_map, images)

    def test_names_without_an_image_keep_their_variable(self):
        x, y, z = ring(GF(7), ("x", "y", "z"))
        p = x ** 3 * z + 2 * y * z ** 2 - x * y
        images = {"x": y + z, "y": x * z}
        assert p.substitute(images) == reference_transform(p, lambda c: c, images)
        assert p.substitute(images) == (y + z) ** 3 * z + 2 * x * z ** 3 - (y + z) * x * z


class TestMembershipOracle:
    def brute_force_certificate(self, p, gens, bound):
        """Solve for p in the k-span of monomial shifts m*g with
        deg(m*g) <= bound; independent of any Groebner machinery."""
        from galdescent.linalg import Matrix, solve_linear

        field = p.field
        names = p.variables
        shifts = []
        monos = [()]
        # all monomials of total degree <= bound in len(names) variables
        def gen_monos(prefix, remaining, slots):
            if slots == 0:
                yield tuple(prefix)
                return
            for e in range(remaining + 1):
                yield from gen_monos(prefix + [e], remaining - e, slots - 1)

        all_monos = list(gen_monos([], bound, len(names)))
        columns = []
        for g in gens:
            dg = g.total_degree()
            for mono in all_monos:
                if sum(mono) + dg <= bound:
                    shifted = MultiPolynomial(field, names, {mono: field.one}) * g
                    columns.append(shifted)
        support = sorted({e for q in columns + [p] for e in q.terms})
        A = Matrix.from_cols(field, [[q.coefficient_of(e) for e in support]
                                     for q in columns])
        b = tuple(p.coefficient_of(e) for e in support)
        return solve_linear(A, b).consistent

    def test_oracle_against_normal_form(self):
        rng = random.Random(17)
        F3 = GF(3)
        names = ("x", "y")
        x, y = ring(F3, names)
        gens = [x * x + y, x * y + 1]
        I = Ideal(F3, names, gens)
        basis = I.groebner(GREVLEX)
        for _ in range(15):
            # members built with explicit certificates of degree <= 5
            m1 = MultiPolynomial(F3, names,
                                 {(rng.randrange(2), rng.randrange(2)): F3.from_int(rng.randrange(1, 3))})
            m2 = MultiPolynomial(F3, names,
                                 {(rng.randrange(2), rng.randrange(2)): F3.from_int(rng.randrange(3))})
            p = m1 * gens[0] + m2 * gens[1]
            assert normal_form(p, basis, GREVLEX).is_zero
            assert self.brute_force_certificate(p, gens, 5)
        for _ in range(15):
            terms = {(rng.randrange(3), rng.randrange(3)): F3.from_int(rng.randrange(3))
                     for _ in range(3)}
            p = MultiPolynomial(F3, names, terms)
            if normal_form(p, basis, GREVLEX).is_zero:
                assert self.brute_force_certificate(p, gens, p.total_degree() + 4)
            else:
                # soundness: a certificate would contradict the normal form
                assert not self.brute_force_certificate(p, gens, p.total_degree() + 2) or False

    def test_certificate_soundness(self):
        F3 = GF(3)
        names = ("x", "y")
        x, y = ring(F3, names)
        gens = [x * x + y]
        I = Ideal(F3, names, gens)
        basis = I.groebner(GREVLEX)
        # everything certified by brute force must have normal form zero
        p_in = (x + y) * gens[0]
        assert self.brute_force_certificate(p_in, gens, 4)
        assert normal_form(p_in, basis, GREVLEX).is_zero
        p_out = x + 1
        assert not self.brute_force_certificate(p_out, gens, 6)
        assert not normal_form(p_out, basis, GREVLEX).is_zero
