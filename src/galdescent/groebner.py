"""Buchberger's algorithm, normal forms, ideal comparison, elimination, and
semilinear transport of polynomials.

Bases are always reduced and monic, so equal ideals under the same order get
the same basis and CLI output stays deterministic.  Every reduction step
is spent from an :class:`~galdescent.errors.Budget`, shared by all calls
that are passed the same one (``budget=None`` starts a fresh default one),
so runaway computations end in a loud ``BudgetExceeded``.

Inside the engine a basis element is a pair (leading monomial, raw tail): the
tail lists its other terms with raw field values (``FieldElement.value``),
and the leading coefficient is 1.  ``buchberger`` makes each generator and
each nonzero remainder monic once, as it enters the basis, and takes its
leading monomial then; S-polynomials, normal forms and the final
inter-reduction run on these pairs, and the result is boxed into
``MultiPolynomial`` once, at the end.  The one reduction loop, ``_reduce``,
updates coefficients with the field's fused ``_sub_mul`` (a - b*c on raw
values, None for zero), so it never dispatches through ``FieldElement``.
``normal_form`` unpacks a caller's basis on entry, scaling only a non-monic
element, and boxes the remainder once on exit.  ``Ideal.contains`` keeps
each cached basis unpacked and runs ``_reduce`` on it, boxing nothing.

``buchberger`` runs Gebauer and Moeller's update (Gebauer & Moeller 1988;
Becker & Weispfenning, Groebner Bases, 1993, section 5.5).  The chain and
product criteria drop the S-pairs that can only reduce to zero, and an
element whose leading term a newer one divides forms no further pairs but
still reduces.  The reduced basis is unique, so the criteria change only the
work, never the result; ``tests/test_groebner.py`` checks this against the
engine without them, and the raw-value reduction against a division on
``FieldElement`` coefficients.

S-pairs wait in a heap keyed on the order key of their lcm, with an insertion
counter that makes equal lcms pop first in, first out; dropped pairs are
skipped when popped and spend nothing.  The reduction keeps the working
polynomial's monomials in a heap on ``MonomialOrder.heap_key`` and pops the
leading term from it.  The criteria and the selection (smallest lcm first,
then oldest pair; largest working term first) fix the sequence of reduction
steps, and so what a budget allows; ``tests/test_groebner.py`` pins the step
counts.
"""

from heapq import heapify, heappop, heappush
from itertools import count

from .errors import Budget, FieldMismatch
from .fields import FieldElement
from .multipoly import (
    GREVLEX,
    MonomialOrder,
    MultiPolynomial,
    _monomial_div,
    _monomial_divides,
    _monomial_lcm,
    _monomial_mul,
    block_order,
)

class Ideal:
    """A finitely generated ideal with cached reduced Groebner bases."""

    __slots__ = ("field", "variables", "generators", "_bases", "_unpacked")

    def __init__(self, field, variables, generators):
        self.field = field
        self.variables = tuple(variables)
        gens = []
        for g in generators:
            if g.field != field or g.variables != self.variables:
                raise FieldMismatch("generator from a different ring")
            if not g.is_zero:
                gens.append(g)
        self.generators = tuple(gens)
        self._bases = {}
        # the (leading monomial, raw tail) pairs of a cached basis, made on
        # the first membership test under its order
        self._unpacked = {}

    def groebner(self, order=GREVLEX, budget=None):
        key = (order.kind, order.split)
        if key not in self._bases:
            self._bases[key] = buchberger(list(self.generators), order, budget)
        return self._bases[key]

    def contains(self, poly, budget=None):
        """Whether ``poly`` lies in the ideal: its normal form modulo a cached
        basis (the least order key) or, with none cached, a grevlex one.
        Membership does not depend on the order, so any cached basis serves.
        The reduction runs on the basis unpacked once per order, with the
        steps that :func:`normal_form` would take."""
        key = min(self._bases, default=(GREVLEX.kind, GREVLEX.split))
        order = MonomialOrder(*key)
        basis = self.groebner(order, budget)
        if poly.is_zero or not basis:
            return poly.is_zero
        _check_ring([poly], self.field, self.variables)
        unpacked = self._unpacked.get(key)
        if unpacked is None:
            unpacked = self._unpacked[key] = [_unpack(g, order) for g in basis]
        return not _reduce({e: c.value for e, c in poly.terms.items()}, unpacked,
                           self.field, order, budget or Budget())

    def is_unit_ideal(self):
        basis = self.groebner()
        return len(basis) == 1 and basis[0].total_degree() == 0

    def __repr__(self):
        return f"Ideal({', '.join(g.format() for g in self.generators) or '0'})"


def _monic(field, lt, terms):
    """(lt, raw tail) of the polynomial with leading monomial ``lt`` and raw
    terms ``terms`` (monomial -> value), scaled to leading coefficient 1: the
    tail lists the other terms as (monomial, value) pairs, and the leading
    coefficient is left implicit."""
    lc = FieldElement(field, terms[lt])
    tail = [(e, c) for e, c in terms.items() if e != lt]
    if lc == 1:
        return lt, tail
    # c / lc is 0 - c * (-1/lc)
    scale, zero = (-lc.inverse()).value, field._zero_value()
    return lt, [(e, field._sub_mul(zero, c, scale)) for e, c in tail]


def _unpack(g, order):
    return _monic(g.field, g.leading(order)[0], {e: c.value for e, c in g.terms.items()})


def _check_ring(polys, field, variables):
    """Raw values carry no field, so the engine checks the ring once, up front."""
    if any(g.field != field or g.variables != variables for g in polys):
        raise FieldMismatch("polynomials from different rings")


def _box(field, variables, lt, tail):
    """The monic polynomial with leading monomial lt and raw tail ``tail``."""
    terms = {lt: field.one}
    terms.update((e, FieldElement(field, c)) for e, c in tail)
    return MultiPolynomial(field, variables, terms)


def _reduce(work, basis, field, order, budget):
    """Fully reduce the raw terms ``work`` (monomial -> value; consumed)
    modulo ``basis``, a list of (leading monomial, raw tail) pairs of monic
    elements, by the classical division algorithm: the leading term of the
    working polynomial is either cancelled against a basis element or moved
    to the remainder.  The remainder comes back as raw terms in descending
    order, so its first key is its leading monomial."""
    sub_mul, zero = field._sub_mul, field._zero_value()
    remainder = {}
    # every monomial of ``work`` is in the heap; entries whose term has since
    # cancelled are skipped when popped.  Reduction only adds terms below the
    # one it cancels, so a popped monomial never re-enters ``work``.
    heap_key = order.heap_key
    heap = [(heap_key(e), e) for e in work]
    heapify(heap)
    while heap:
        exps = heappop(heap)[1]
        coeff = work.pop(exps, None)
        if coeff is None:
            continue
        for lt, tail in basis:
            if _monomial_divides(lt, exps):
                budget.spend()
                shift = _monomial_div(exps, lt)
                for ge, gc in tail:
                    e = _monomial_mul(shift, ge)
                    prev = work.get(e)
                    val = sub_mul(zero if prev is None else prev, coeff, gc)
                    if val is not None:
                        if prev is None:
                            heappush(heap, (heap_key(e), e))
                        work[e] = val
                    elif prev is not None:
                        del work[e]
                break
        else:
            remainder[exps] = coeff
    return remainder


def normal_form(poly, basis, order=GREVLEX, budget=None):
    """Fully reduced remainder of ``poly`` modulo a Groebner basis, by the
    classical division algorithm; a non-monic basis element is scaled to
    leading coefficient 1 first."""
    if poly.is_zero or not basis:
        return poly
    field, variables = poly.field, poly.variables
    _check_ring(basis, field, variables)
    remainder = _reduce({e: c.value for e, c in poly.terms.items()},
                        [_unpack(g, order) for g in basis], field, order,
                        budget or Budget())
    return MultiPolynomial(field, variables,
                           {e: FieldElement(field, c) for e, c in remainder.items()})


def _s_polynomial(f, g, field):
    """Raw terms of the S-polynomial of monic f and g, given as (leading
    monomial, raw tail): both tails shifted up to the lcm, subtracted.  The
    leading terms cancel."""
    (lt_f, tail_f), (lt_g, tail_g) = f, g
    lcm = _monomial_lcm(lt_f, lt_g)
    mf, mg = _monomial_div(lcm, lt_f), _monomial_div(lcm, lt_g)
    sub_mul, zero, one = field._sub_mul, field._zero_value(), field.one.value
    work = {_monomial_mul(mf, e): c for e, c in tail_f}
    for e, c in tail_g:
        e = _monomial_mul(mg, e)
        prev = work.get(e)
        val = sub_mul(zero if prev is None else prev, one, c)
        if val is None:
            del work[e]
        else:
            work[e] = val
    return work


def buchberger(generators, order=GREVLEX, budget=None):
    """Reduced monic Groebner basis of the ideal the generators span."""
    generators = [g for g in generators if not g.is_zero]
    if not generators:
        return []
    field, variables = generators[0].field, generators[0].variables
    _check_ring(generators, field, variables)
    budget = budget or Budget()
    # each element as (leading monomial, raw tail); ``leads`` repeats the
    # leading monomials for the pair bookkeeping
    basis, leads = [], []
    # pairs pop smallest lcm first; the insertion counter breaks ties first
    # in, first out.  ``live`` maps each pending pair to its lcm; a pair the
    # criteria drop leaves ``live`` and is skipped when popped.
    pairs = []
    live = {}
    counter = count()
    active = []

    def enter(h, tail):
        """Append the monic element (h, tail); Gebauer and Moeller's UPDATE
        pairs it with the active elements and drops every pair that the
        criteria rule out."""
        k = len(basis)
        basis.append((h, tail))
        leads.append(h)
        new = [(i, _monomial_lcm(leads[i], h)) for i in active]
        # chain criterion on the new pairs: a pair goes when the lcm of a
        # later pair or of one already kept divides its own, so of equal
        # lcms exactly one stays; coprime pairs take part, and only then go
        kept = []
        for n, (i, lcm) in enumerate(new):
            coprime = lcm == _monomial_mul(leads[i], h)
            others = [l for _, l, _ in kept] + [l for _, l in new[n + 1:]]
            if coprime or not any(_monomial_divides(l, lcm) for l in others):
                kept.append((i, lcm, coprime))
        # chain criterion on the old pairs: LT(h) divides the lcm, and h
        # shares it with neither element
        for (i, j), lcm in list(live.items()):
            if (_monomial_divides(h, lcm)
                    and _monomial_lcm(leads[i], h) != lcm
                    and _monomial_lcm(leads[j], h) != lcm):
                del live[i, j]
        for i, lcm, coprime in kept:
            if not coprime:
                live[i, k] = lcm
                heappush(pairs, (order.key(lcm), next(counter), i, k))
        # an element whose leading term LT(h) divides forms no more pairs,
        # but still reduces
        active[:] = [i for i in active if not _monomial_divides(h, leads[i])]
        active.append(k)

    for g in generators:
        enter(*_unpack(g, order))
    while pairs:
        _, _, i, j = heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        budget.spend()
        remainder = _reduce(_s_polynomial(basis[i], basis[j], field),
                            basis, field, order, budget)
        if remainder:
            # the first key of a remainder leads
            enter(*_monic(field, next(iter(remainder)), remainder))
    return [_box(field, variables, h, tail)
            for h, tail in _reduce_basis(basis, field, order, budget)]


def _reduce_basis(basis, field, order, budget):
    # minimalize: LT(h) | LT(g) forces LT(h) <= LT(g), so an ascending sweep
    # keeping only elements whose LT no kept LT divides is complete
    ordered = sorted(basis, key=lambda p: order.key(p[0]))
    kept = []
    for lt, tail in ordered:
        if not any(_monomial_divides(h, lt) for h, _ in kept):
            kept.append((lt, tail))
    # full reduction of each tail: no other kept LT divides an element's
    # own LT, so it keeps its leading term with coefficient 1, the basis
    # stays monic and in ascending order
    if len(kept) == 1:
        return kept
    return [(lt, list(_reduce(dict(tail), kept[:i] + kept[i + 1:], field, order,
                              budget).items()))
            for i, (lt, tail) in enumerate(kept)]


def ideal_equal(I, J, budget=None):
    """Mutual membership of generators, each side asked by ``contains``."""
    if I.field != J.field or I.variables != J.variables:
        raise FieldMismatch("ideals from different rings")
    return (all(J.contains(g, budget) for g in I.generators)
            and all(I.contains(g, budget) for g in J.generators))


def eliminate(I, keep, budget=None):
    """I intersected with the subring on the ``keep`` variables, which must
    be a suffix of the variable order."""
    variables = I.variables
    keep = tuple(keep)
    split = len(variables) - len(keep)
    if variables[split:] != keep:
        raise FieldMismatch(f"{keep} is not a suffix of {variables}")
    order = block_order(split)
    basis = I.groebner(order, budget)
    out = []
    for g in basis:
        if all(all(e == 0 for e in exps[:split]) for exps in g.terms):
            out.append(MultiPolynomial(
                I.field, keep,
                {exps[split:]: c for exps, c in g.terms.items()}))
    return Ideal(I.field, keep, out)


def apply_semilinear(sigma, images, poly):
    """Map coefficients through the automorphism, then substitute variables by
    their images; the computational form of transporting a polynomial along a
    semilinear algebra map."""
    return poly.transform(sigma, images)
