"""Buchberger's algorithm, normal forms, ideal comparison, elimination, and
semilinear transport of polynomials.

Bases are always reduced and monic, so equal ideals under the same order get
the same basis and CLI output stays deterministic.  Every reduction step
is spent from an :class:`~galdescent.errors.Budget`, shared by all calls
that are passed the same one (``budget=None`` starts a fresh default one),
so runaway computations end in a loud ``BudgetExceeded``.

Inside the engine a monomial is one int (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  Its fields, most significant first, are the rows of the order's key
and then the exponents, each of ``width`` value bits under one guard bit.
The key rows are, for grevlex, the total degree and then the prefix sums
e0 + ... + e(n-2), ..., e0; for lex, the exponents; for block(k), the
grevlex rows of the first k variables, then those of the rest.  Every row is
a sum of exponents, so packing is linear: a product is one ``+``, a quotient
one ``-``, and comparing two packed ints compares their ``order.key``.  A
monomial divides m exactly when ``(m - lt) & guard`` is 0, since a negative
field borrows from its guard bit.  The sum of two packed monomials is exact
even when a field outgrows ``width`` bits, but the field then sets its guard
bit; the engine tests each new product and each new signature (see below)
and raises ``_Overflow`` on such a bit.  Lex and block reductions can raise
degrees that way.  ``_widening`` then puts ``budget.spent`` back to its value
on entry and reruns the whole call at double width: the packed order is
exact at every width, so the rerun takes the steps that a wide first run
would, and no wrong basis or remainder ever leaves the engine.

A basis element is a triple (packed leading monomial, d, tail) whose
leading coefficient is 1.  Over QQ the tail lists its other terms as
(monomial, n) for the coefficient n/d: int numerators over one denominator
d > 0, coprime to them.  Over any other field d is 1 and the tail holds raw
field values (``FieldElement.value``: an int mod p, or over an extension
its value, the tuple of its coordinates mod p or, over Q, its int
numerators over one denominator).  An element is made once per packing:
``buchberger`` makes each generator and each nonzero remainder monic as it
enters the basis, ``normal_form`` packs a caller's basis on entry (scaling
only a non-monic element), and ``Ideal.contains`` keeps each cached basis
packed.  S-polynomials, normal forms and the final inter-reduction run on
these elements, and a result is unpacked into ``MultiPolynomial`` once, at
the end.  Over QQ and GF(p) one loop reduces on ints, over QQ fraction-free
(Greuel & Pfister, A Singular Introduction to Commutative Algebra, 2008,
sections 1.6 and 2.3): it reduces on int numerators over one denominator,
scales the work and the remainder so far when an element's denominator
requires it, and divides out the content once per remainder.  A remainder
becomes a monic element straight from its numerators, and over QQ the
engine makes no ``Fraction`` until ``_box`` and ``normal_form`` unpack a
result, one per term.  Over GF(p) the denominators are 1 and a value is
taken mod p only when its term leads.  Over an extension field the other loop
updates coefficients with the field's fused ``_sub_mul`` (a - b*c on raw
values, None for zero).  Neither loop dispatches through ``FieldElement``.

Both loops reduce a term by the first element in basis order whose leading
monomial divides it (and, in an S-pair reduction, whose step the signature
bound admits).  The int loop finds that element in a divisor index, not by
a scan of the basis: a dict from a packed monomial m to (n, the elements
among the first n of the basis whose leading monomial divides m, in basis
order), extended to the elements appended since when the basis has grown
past n.  An index lives as long as the packed basis it describes: one
engine run of ``buchberger`` keeps one for its append-only basis, shared by
the generator and S-pair reductions, and one for the final
inter-reduction; ``Ideal.contains`` keeps one beside each cached packing.
A widening rerun starts afresh, since packed keys depend on the width.  The
loop over an extension field keeps its scan: its bases are small and its
calls mostly short membership tests, where building the entries cost more
than they saved.

``buchberger`` is signature-based and incremental (Faugere, "A new
efficient algorithm for computing Groebner bases without reduction to zero
(F5)", ISSAC 2002; Eder & Faugere, "A survey on signature-based algorithms
for computing Groebner bases", JSC 2017).  The generators enter one at a
time, smallest leading monomial first.  Each is reduced by the basis of
those before it, and the remainder enters with signature 1*e, for e the new
generator.  Every further element for that generator carries a signature
u*e, u a packed monomial: the leading term of the module element that
writes it in the generators.  An S-pair of elements, of which at least one
belongs to the new generator, carries the signature of its larger side.
Before it reduces, a pair goes when its signature is a multiple of a
leading monomial of the earlier basis (the F5 criterion: a Koszul
syzygy), of a signature that reduced to zero (the syzygy criterion), or
of the signature of an element newer than its own (the rewrite
criterion).  The reduction is regular: an element of the new generator
reduces a term only at a signature below the pair's.  So no S-pair of a
regular sequence reduces to zero.  Every nonzero remainder enters the
basis, also one that an element of equal signature would top-reduce:
dropping it would leave the rewrite criterion, which goes by insertion
order, dropping pairs that nothing else stands for.  When the generators'
leading monomials are pairwise coprime, they already form a basis
(Buchberger's first criterion).  The reduced basis is unique, so the
criteria change only the work, never the result; ``tests/test_groebner.py``
checks this against Buchberger's algorithm without them, and the packed
raw-value reduction against a division on exponent tuples and
``FieldElement`` coefficients.

S-pairs wait in a heap keyed on their packed signature, with an insertion
counter that makes equal signatures pop first in, first out; dropped pairs
spend nothing.  The reduction keeps the working polynomial's negated packed
monomials in a heap and pops the leading term from it.  The criteria and
the selection (smallest signature first, then oldest pair; largest working
term first) fix the sequence of reduction steps, and so what a budget
allows; ``tests/test_groebner.py`` pins the step counts.
"""

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import count
from operator import mul

from .errors import Budget, FieldMismatch
from .fields import QQ, FieldElement, int_modulus
from .multipoly import GREVLEX, MonomialOrder, MultiPolynomial, block_order
from .unipoly import _inverse

# value bits per field of a first run; an overflow doubles them
_WIDTH = 15


class _Overflow(Exception):
    """A packed monomial outgrew its fields; never leaves this module."""


class _Packing:
    """Monomials in ``n`` variables under one order, packed into ints with
    fields of ``width`` value bits and a guard bit above each."""

    __slots__ = ("width", "columns", "shifts", "mask", "guard")

    def __init__(self, order, n, width):
        if order.kind == "lex":
            rows = [range(i, i + 1) for i in range(n)]
        else:
            split = min(order.split, n) if order.kind == "block" else 0
            rows = _grevlex_rows(0, split) + _grevlex_rows(split, n)
        # the key rows, then the exponents, most significant first
        fields = rows + [range(i, i + 1) for i in range(n)]
        stride = width + 1
        place = [(len(fields) - 1 - f) * stride for f in range(len(fields))]
        self.width = width
        self.columns = [sum(1 << s for s, row in zip(place, fields) if i in row)
                        for i in range(n)]
        self.shifts = place[len(rows):]
        self.mask = (1 << width) - 1
        self.guard = sum(1 << s + width for s in place)

    def pack(self, exps):
        # every field is a sum of exponents, so none exceeds the degree
        if sum(exps) >> self.width:
            raise _Overflow
        return sum(map(mul, exps, self.columns))

    def unpack(self, m):
        mask = self.mask
        return tuple([m >> s & mask for s in self.shifts])


def _grevlex_rows(lo, hi):
    """Rows of the grevlex key on variables lo..hi-1: the total degree, then
    the prefix sums of the exponents, longest first."""
    return [range(lo, end) for end in range(hi, lo, -1)]


_PACKINGS = {}


def _packing(order, n, width):
    key = (order.kind, order.split, n, width)
    packing = _PACKINGS.get(key)
    if packing is None:
        packing = _PACKINGS[key] = _Packing(order, n, width)
    return packing


def _widening(order, n, budget, run, width=None):
    """``run(packing)`` at ``width`` value bits (by default ``_WIDTH``), rerun
    at double width, with ``budget.spent`` as on entry, for as long as a
    monomial overflows."""
    spent, width = budget.spent, width or _WIDTH
    while True:
        try:
            return run(_packing(order, n, width))
        except _Overflow:
            budget.spent = spent
            width *= 2


class Ideal:
    """A finitely generated ideal with cached reduced Groebner bases."""

    __slots__ = ("field", "variables", "generators", "_bases", "_packed")

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
        # order key -> (packing, basis elements, divisor index) of a cached
        # basis, made on the first membership test under its order
        self._packed = {}

    def groebner(self, order=GREVLEX, budget=None):
        key = (order.kind, order.split)
        if key not in self._bases:
            self._bases[key] = buchberger(list(self.generators), order, budget)
        return self._bases[key]

    def contains(self, poly, budget=None):
        """Whether ``poly`` lies in the ideal: its normal form modulo a cached
        basis (the least order key) or, with none cached, a grevlex one.
        Membership does not depend on the order, so any cached basis serves.
        The reduction runs on the basis packed once per order, with the
        steps that :func:`normal_form` would take, and one divisor index
        serves every test on that packing."""
        key = min(self._bases, default=(GREVLEX.kind, GREVLEX.split))
        order = MonomialOrder(*key)
        basis = self.groebner(order, budget)
        if poly.is_zero or not basis:
            return poly.is_zero
        _check_ring([poly], self.field, self.variables)
        budget = budget or Budget()

        def run(packing):
            cached = self._packed.get(key)
            if cached is None or cached[0] is not packing:
                cached = self._packed[key] = (packing, [_pack(g, packing) for g in basis], {})
            return not _reduce(*_working(self.field, _pack_terms(poly, packing)),
                               cached[1], self.field, packing.guard, budget,
                               index=cached[2])[0]

        # start at the width the cached basis was packed at
        cached = self._packed.get(key)
        return _widening(order, len(self.variables), budget, run,
                         cached and cached[0].width)

    def is_unit_ideal(self):
        basis = self.groebner()
        return len(basis) == 1 and basis[0].total_degree() == 0

    def __repr__(self):
        return f"Ideal({', '.join(g.format() for g in self.generators) or '0'})"


def _element(field, lt, terms):
    """The basis element (lt, d, tail) of the polynomial with leading
    monomial ``lt`` and terms ``terms`` (monomial -> value, as ``_working``
    and ``_reduce`` give them), scaled to leading coefficient 1, which is
    left implicit.  Over QQ the values are int numerators over any common
    denominator, which cancels: with g = gcd(lc, *tail), signed as lc, the
    tail lists the other terms as (monomial, n/g) for the coefficient
    (n/g)/d, d = lc/g > 0, so d and the tail's numerators are coprime.
    Over any other field d is 1 and the tail lists (monomial, raw value)."""
    lc = terms[lt]
    tail = [(e, c) for e, c in terms.items() if e != lt]
    p = int_modulus(field)
    if p == 0:
        g = math.gcd(lc, *[n for _, n in tail])
        if lc < 0:
            g = -g
        if g != 1:
            tail = [(e, n // g) for e, n in tail]
        return lt, lc // g, tail
    if p is not None:
        if lc != 1:
            inv = _inverse(lc, p)
            tail = [(e, c * inv % p) for e, c in tail]
        return lt, 1, tail
    lc = FieldElement(field, lc)
    if lc == 1:
        return lt, 1, tail
    # c / lc is 0 - c * (-1/lc)
    scale, zero = (-lc.inverse()).value, field.zero.value
    return lt, 1, [(e, field._sub_mul(zero, c, scale)) for e, c in tail]


def _pack_terms(poly, packing):
    """The raw terms of ``poly``, packed monomial -> value."""
    pack = packing.pack
    return {pack(e): c.value for e, c in poly.terms.items()}


def _working(field, terms):
    """The working polynomial (terms, den) that ``_reduce`` takes for the
    raw terms ``terms``: over QQ int numerators over their least common
    denominator, over any other field the raw terms themselves over 1."""
    if field is QQ:
        den = math.lcm(*[c.denominator for c in terms.values()])
        return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den
    return terms, 1


def _pack(g, packing):
    """The basis element of ``g`` made monic: the packed order is the
    order's, so the largest packed monomial leads."""
    terms, _ = _working(g.field, _pack_terms(g, packing))
    return _element(g.field, max(terms), terms)


def _check_ring(polys, field, variables):
    """Raw values carry no field, so the engine checks the ring once, up front."""
    if any(g.field != field or g.variables != variables for g in polys):
        raise FieldMismatch("polynomials from different rings")


def _unpack(field, packing, terms, den):
    """Exponent tuple -> ``FieldElement`` for the terms ``terms`` (packed
    monomial -> value) over ``den`` that ``_reduce`` returns: over QQ each
    numerator n becomes the one ``Fraction`` n/den."""
    unpack = packing.unpack
    if field is QQ:
        return {unpack(e): FieldElement(field, Fraction(n, den)) for e, n in terms.items()}
    return {unpack(e): FieldElement(field, c) for e, c in terms.items()}


def _box(field, variables, packing, lt, tail, den):
    """The monic polynomial with packed leading monomial lt and tail
    ``tail`` (packed monomial -> value) over ``den``."""
    terms = {packing.unpack(lt): field.one}
    terms.update(_unpack(field, packing, tail, den))
    return MultiPolynomial(field, variables, terms)


def _reduce(work, den, basis, field, guard, budget, bound=None, regular=None, index=None):
    """Fully reduce the working polynomial ``work`` over ``den`` (packed
    monomial -> value, as ``_working`` makes it; consumed) modulo ``basis``,
    a list of basis elements (see ``_element``), by the classical division
    algorithm: the leading term of the working polynomial is either
    cancelled against the first dividing element in basis order or moved
    to the remainder.  The remainder comes back as a working polynomial
    (terms, den), its terms in descending order, so that the first key is
    its leading monomial.  With
    a signature ``bound``, an element whose leading monomial ``regular``
    maps to its signature s reduces a term x^shift * lt only when
    x^shift * s is below the bound, and every other element reduces any
    term.  ``index`` is a divisor index of ``basis`` for the int loop (see
    ``_reduce_ints``; a fresh one by default), which the loop over an
    extension field does without.  Raises ``_Overflow`` on a product that
    outgrows its fields."""
    p = int_modulus(field)
    if p is not None:
        return _reduce_ints(work, den, basis, p, guard, budget, bound, regular,
                            {} if index is None else index)
    sub_mul, zero = field._sub_mul, field.zero.value
    remainder = {}
    # every monomial of ``work`` is in the heap, negated so that the largest
    # pops first; entries whose term has since cancelled are skipped when
    # popped.  Reduction only adds terms below the one it cancels, so a
    # popped monomial never re-enters ``work``.
    heap = [-e for e in work]
    heapify(heap)
    while heap:
        exps = -heappop(heap)
        coeff = work.pop(exps, None)
        if coeff is None:
            continue
        for lt, _, tail in basis:
            shift = exps - lt
            if not shift & guard:
                if bound is not None and lt in regular and shift + regular[lt] >= bound:
                    continue
                budget.spend()
                for ge, gc in tail:
                    e = shift + ge
                    prev = work.get(e)
                    val = sub_mul(zero if prev is None else prev, coeff, gc)
                    if val is not None:
                        if prev is None:
                            # a monomial already in ``work`` was tested when
                            # it came in
                            if e & guard:
                                raise _Overflow
                            heappush(heap, -e)
                        work[e] = val
                    elif prev is not None:
                        del work[e]
                break
        else:
            remainder[exps] = coeff
    return remainder, 1


def _reduce_ints(work, den, basis, p, guard, budget, bound, regular, index):
    """``_reduce`` on ints: fraction-free over QQ (p = 0), lazily mod p over
    GF(p).  ``work`` holds int numerators over the one denominator ``den``,
    and each basis element int numerators over its d.  A term is reduced by
    the first dividing element in basis order that the signature bound
    admits, looked up in the divisor index ``index`` (updated in place): it
    maps a packed monomial m to (n, the elements of ``basis[:n]`` whose
    leading monomial divides m, in basis order), and an entry is extended
    when the basis has grown past n.  A step cancels the top term w/den
    against x^shift times an element: with k = gcd(w, d) and
    d = k*m, each tail term n/d subtracts (w/den)(n/d) = (w/k)*n / (den*m),
    so the work, the remainder so far and ``den`` are first scaled by m
    (when m is not 1).  A term moves to the remainder as its numerator, and
    the content, the gcd of ``den`` and the remainder's numerators, is
    divided out once, at the end.  Over GF(p) d and ``den`` are 1; a value
    is taken mod p only at the top, where a term that vanished is skipped,
    so it grows at most to p^2 times its monomial's updates.  It takes the
    generic loop's steps: a coefficient vanishes in one exactly when it does
    in the other."""
    gcd, remainder, size = math.gcd, {}, len(basis)
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
        entry = index.get(exps)
        if entry is None:
            entry = index[exps] = size, tuple([g for g in basis if not (exps - g[0]) & guard])
        elif entry[0] < size:
            entry = index[exps] = size, entry[1] + tuple(
                [g for g in basis[entry[0]:] if not (exps - g[0]) & guard])
        for lt, d, tail in entry[1]:
            shift = exps - lt
            if bound is None or lt not in regular or shift + regular[lt] < bound:
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
                        if e & guard:
                            raise _Overflow
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


def normal_form(poly, basis, order=GREVLEX, budget=None):
    """Fully reduced remainder of ``poly`` modulo a Groebner basis, by the
    classical division algorithm; a non-monic basis element is scaled to
    leading coefficient 1 first."""
    if poly.is_zero or not basis:
        return poly
    field, variables = poly.field, poly.variables
    _check_ring(basis, field, variables)
    budget = budget or Budget()

    def run(packing):
        remainder, den = _reduce(*_working(field, _pack_terms(poly, packing)),
                                 [_pack(g, packing) for g in basis], field,
                                 packing.guard, budget)
        return _unpack(field, packing, remainder, den)

    return MultiPolynomial(field, variables, _widening(order, len(variables), budget, run))


def _s_polynomial(f, g, lcm, field, guard):
    """The working polynomial (terms, den) of the S-polynomial of the basis
    elements f and g, whose leading monomials have the packed lcm
    ``lcm``: both tails shifted up to it, subtracted.  The leading terms
    cancel."""
    (lt_f, d_f, tail_f), (lt_g, d_g, tail_g) = f, g
    mf, mg = lcm - lt_f, lcm - lt_g
    if int_modulus(field) is not None:
        # both tails over the lcm of their denominators
        den = math.lcm(d_f, d_g)
        sf, sg = den // d_f, den // d_g
        work = {mf + e: n * sf for e, n in tail_f}
        for e, n in tail_g:
            e += mg
            val = work.get(e, 0) - n * sg
            if val:
                work[e] = val
            else:
                del work[e]
    else:
        den = 1
        sub_mul, zero, one = field._sub_mul, field.zero.value, field.one.value
        work = {mf + e: c for e, c in tail_f}
        for e, c in tail_g:
            e += mg
            prev = work.get(e)
            val = sub_mul(zero if prev is None else prev, one, c)
            if val is None:
                del work[e]
            else:
                work[e] = val
    # the sums are exact, so a term that cancelled does no harm
    if any(e & guard for e in work):
        raise _Overflow
    return work, den


def buchberger(generators, order=GREVLEX, budget=None):
    """Reduced monic Groebner basis of the ideal the generators span."""
    generators = [g for g in generators if not g.is_zero]
    if not generators:
        return []
    field, variables = generators[0].field, generators[0].variables
    _check_ring(generators, field, variables)
    budget = budget or Budget()

    def run(packing):
        basis = _buchberger(generators, field, packing, budget)
        return [_box(field, variables, packing, h, tail, den) for h, tail, den in basis]

    return _widening(order, len(variables), budget, run)


def _buchberger(generators, field, packing, budget):
    """The reduced basis as (packed leading monomial, tail, den) triples,
    each tail a remainder of ``_reduce``, in ascending order."""
    guard = packing.guard
    # generators enter smallest leading monomial first, ties in input order
    packed = sorted((_pack_terms(g, packing) for g in generators), key=max)
    tops = [max(terms) for terms in packed]
    exps = [packing.unpack(h) for h in tops]
    if not any(any(map(min, a, b)) for n, a in enumerate(exps) for b in exps[:n]):
        # pairwise coprime leading monomials: every S-pair reduces to zero
        # (Buchberger's first criterion), so the generators are a basis
        basis = [_element(field, h, _working(field, terms)[0])
                 for h, terms in zip(tops, packed)]
    else:
        # the basis elements (see ``_element``); ``leads`` repeats their
        # leading monomials.  The basis only grows, so one divisor index
        # serves every reduction modulo it.
        basis, leads, index = [], [], {}
        for terms in packed:
            remainder, _ = _reduce(*_working(field, terms), basis, field, guard, budget,
                                   index=index)
            if not _extend(basis, leads, remainder, field, packing, budget, index):
                return [(0, {}, 1)]
        # the inter-reduction builds its own index; free this one first, so
        # that the two never hold memory at once
        del index
    return _reduce_basis(basis, field, guard, budget)


def _extend(basis, leads, remainder, field, packing, budget, index):
    """Extend ``basis``, a Groebner basis of the earlier generators, to one
    of the ideal that they and one more generator span, given that
    generator's ``remainder`` modulo ``basis``; False for the unit ideal.
    Every S-pair reduces with the divisor index ``index`` of ``basis``.

    A new element carries the signature u of u*e, for e the new generator
    (signature 1, packed 0): the monomial the generator is multiplied by in
    a representation of the element, up to terms of lower signature.  A
    monomial a divides b exactly when ``(b - a) & guard`` is 0."""
    guard, pack, unpack = packing.guard, packing.pack, packing.unpack
    # the exponent tuples of ``leads``, so that a pair's lcm unpacks nothing
    exponents = [unpack(g) for g in leads]
    # the elements of the new generator follow the earlier ones from
    # ``first`` on; ``sigs`` holds their signatures, ``regular`` maps their
    # leading monomials to them, and ``syzygies`` collects the signatures
    # that reduced to zero
    first, earlier = len(basis), leads[:]
    sigs, regular, syzygies = [], {}, []
    # pairs pop smallest signature first; the insertion counter breaks ties
    # first in, first out
    pairs, counter, sig = [], count(), 0
    while True:
        if not remainder:
            syzygies.append(sig)
        else:
            # the first key of a remainder leads
            h = next(iter(remainder))
            if not h:
                return False
            # a remainder enters even when an element of equal signature
            # top-reduces it: as the newest element whose signature divides
            # its multiples, it stands for them in the rewrite criterion
            k = len(basis)
            basis.append(_element(field, h, remainder))
            leads.append(h)
            exps = unpack(h)
            sigs.append(sig)
            regular[h] = sig
            # each pair carries the signature of its larger side, whose index
            # comes first; a pair of equal signatures is dropped, and so is
            # one whose signature is a multiple of an earlier leading
            # monomial (the F5 criterion)
            for i, g in enumerate(leads[:k]):
                lcm = pack(tuple(map(max, exponents[i], exps)))
                mine = lcm - h + sig
                theirs = lcm - g + sigs[i - first] if i >= first else -1
                if mine == theirs:
                    continue
                top = max(mine, theirs)
                if top & guard:
                    raise _Overflow
                for e in earlier:
                    if not (top - e) & guard:
                        break
                else:
                    heappush(pairs, (top, next(counter), k, i, lcm) if top == mine
                             else (top, next(counter), i, k, lcm))
            exponents.append(exps)
        # the next pair that neither of the other criteria drops; none left
        # ends the loop
        while pairs:
            sig, _, k, i, lcm = heappop(pairs)
            for s in syzygies:
                # a multiple of a signature that reduced to zero
                if not (sig - s) & guard:
                    break
            else:
                for j in range(k - first + 1, len(sigs)):
                    # a multiple of a newer element's signature (rewrite)
                    if not (sig - sigs[j]) & guard:
                        break
                else:
                    break
        else:
            return True
        budget.spend()
        remainder, _ = _reduce(*_s_polynomial(basis[k], basis[i], lcm, field, guard),
                               basis, field, guard, budget, bound=sig, regular=regular,
                               index=index)


def _reduce_basis(basis, field, guard, budget):
    # minimalize: LT(h) | LT(g) forces LT(h) <= LT(g), so an ascending sweep
    # keeping only elements whose LT no kept LT divides is complete
    kept = []
    for element in sorted(basis, key=lambda p: p[0]):
        if all((element[0] - h) & guard for h, _, _ in kept):
            kept.append(element)
    # full reduction of each tail: no other kept LT divides an element's
    # own LT, so it keeps its leading term with coefficient 1, the basis
    # stays monic and in ascending order.  An element's own LT divides no
    # monomial below it, so reducing modulo all of ``kept`` changes no step.
    index = {}
    return [(lt, *_reduce(dict(tail), d, kept, field, guard, budget, index=index))
            for lt, d, tail in kept]


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
