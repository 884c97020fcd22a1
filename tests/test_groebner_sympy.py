"""Differential test of the Groebner engine against sympy.groebner.

Reduced monic Groebner bases are unique for a given ideal and order, so the
two engines must return the same set of polynomials.  Skipped when either
hypothesis or sympy is missing; neither is a dependency of the package.

The engine has no pair criteria yet, so a rare lex ideal over QQ needs over
10^5 reduction steps (about a minute); ideals that exceed ``STEP_CAP`` are
discarded instead of compared, which keeps the test to a few seconds.
"""

from fractions import Fraction
from itertools import product

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, reject, settings, strategies as st  # noqa: E402

from galdescent.errors import Budget, BudgetExceeded  # noqa: E402
from galdescent.fields import GF, QQ  # noqa: E402
from galdescent.groebner import buchberger  # noqa: E402
from galdescent.multipoly import GREVLEX, LEX, MultiPolynomial  # noqa: E402

FIELDS = [QQ, GF(7), GF(32003)]
ORDERS = {"lex": LEX, "grevlex": GREVLEX}
STEP_CAP = 5000


@st.composite
def ideals(draw):
    """(field, order name, variable names, generator term dicts): up to three
    nonzero generators of degree at most 3 in two or three variables, with
    coefficients in [-5, 5]."""
    field = draw(st.sampled_from(FIELDS))
    order = draw(st.sampled_from(sorted(ORDERS)))
    names = ("x", "y", "z")[: draw(st.integers(2, 3))]
    monomial = st.sampled_from([e for e in product(range(4), repeat=len(names))
                                if sum(e) <= 3])
    # no nonzero integer in [-5, 5] vanishes in GF(7) or GF(32003)
    coefficient = st.sampled_from([c for c in range(-5, 6) if c])
    generator = st.dictionaries(monomial, coefficient, min_size=1, max_size=4)
    gens = draw(st.lists(generator, min_size=1, max_size=3))
    return field, order, names, gens


def _monic(terms, field):
    """A polynomial given as (exponents, coefficient) pairs, leading pair
    first, as a frozenset of monic terms in a field-independent form."""
    if field is QQ:
        values = [(e, Fraction(int(c.p), int(c.q))) for e, c in terms]
        lead = values[0][1]
        return frozenset((e, c / lead) for e, c in values)
    p = field.p
    values = [(e, int(c) % p) for e, c in terms]
    inv = pow(values[0][1], -1, p)
    return frozenset((e, c * inv % p) for e, c in values)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ideals())
def test_reduced_basis_matches_sympy(case):
    field, order_name, names, gens = case
    order = ORDERS[order_name]
    polys = [MultiPolynomial(field, names,
                             {e: field.from_int(c) for e, c in g.items()})
             for g in gens]
    try:
        basis = buchberger(polys, order, Budget(STEP_CAP))
    except BudgetExceeded:
        reject()
    ours = {frozenset((e, c.value) for e, c in g.terms.items()) for g in basis}

    symbols = sympy.symbols(names)
    exprs = [sum(c * sympy.prod(s ** k for s, k in zip(symbols, e))
                 for e, c in g.items()) for g in gens]
    options = {} if field is QQ else {"modulus": field.p}
    theirs = sympy.groebner(exprs, *symbols, order=order_name, **options)
    expected = {_monic(poly.terms(order=order_name), field)
                for poly in theirs.polys}
    assert ours == expected
