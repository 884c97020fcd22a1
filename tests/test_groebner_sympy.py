"""Differential test of the Groebner engine against sympy.groebner.

Reduced monic Groebner bases are unique for a given ideal and order, so the
two engines must return the same set of polynomials.  Skipped when either
hypothesis or sympy is missing; neither is a dependency of the package.

Every generated ideal is compared under the default budget, so an ideal
whose basis runs away fails the test instead of being skipped.  The ideals
come from ``test_groebner.ideals``, which also drives the comparison with
the criteria-free reference engine.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from test_groebner import ideals  # noqa: E402

from galdescent.fields import QQ  # noqa: E402
from galdescent.groebner import buchberger  # noqa: E402
from galdescent.multipoly import GREVLEX, LEX, MultiPolynomial  # noqa: E402

ORDERS = {"lex": LEX, "grevlex": GREVLEX}


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
    basis = buchberger(polys, order)
    ours = {frozenset((e, c.value) for e, c in g.terms.items()) for g in basis}

    symbols = sympy.symbols(names)
    exprs = [sum(c * sympy.prod(s ** k for s, k in zip(symbols, e))
                 for e, c in g.items()) for g in gens]
    options = {} if field is QQ else {"modulus": field.p}
    theirs = sympy.groebner(exprs, *symbols, order=order_name, **options)
    expected = {_monic(poly.terms(order=order_name), field)
                for poly in theirs.polys}
    assert ours == expected
