"""Point enumeration over finite fields.

:func:`tuples` fixes the order of every listing in the library: the q^n
tuples over a pool of q values in base-q counting order, the first
coordinate varying fastest.  Elements of GF(p^n) (coordinates on the power
basis), default-modulus candidates and solution points are all listed in
this order.

:func:`solutions`, the scan behind the affine point oracles, backtracks
rather than evaluating every generator at all q^n candidates: it assigns the
variables one at a time and tests each generator as soon as its last
variable has a value, so a failing partial point cuts off everything below
it.  The values that a variable may take are the common roots in F_q of the
generators it closes, each reduced to its coefficient tuple in that
variable, kept as running sums to which a node adds only the terms of the
variable it assigns.  A generator of degree 1 in the variable gives its
root by one subtraction of logs; the first other one is scanned over all of
F_q, and a memo of at most q of its coefficient tuples saves the q-scan for
repeated ones; each later generator is evaluated at the roots that survive,
and none once no root survives.  The last two variables are closed as one
step below each node of the level before them.  What that step yields
depends only on the node's key: its sums in the slots that the last two
levels read, and each term's coefficient times its factors over earlier
variables for the terms that the penultimate variable updates.  A memo of
one call keeps, for each key, the hits that its first node found, and a
node whose key repeats copies them under its own prefix; it holds at most
one key per node of that level, q^(n-2) for n variables, and no more hits
than the scan returns.  A new key is solved: the fibre of the penultimate
variable is found, each slot that it updates is computed as one column over
that fibre, so a term's factors over earlier variables are multiplied once
per node rather than once per value, and the last level is then solved for
each value of the fibre by the same fibre routine.  The hits are sorted
back into :func:`tuples` order.  Backtracking with early constraint
checks: Golomb and Baumert, "Backtrack programming", J. ACM 12 (1965);
caching a subproblem by the state it reads: Dechter and Mateescu, "AND/OR
search spaces for graphical models", Artificial Intelligence 171 (2007).

Solution sets are tiny but appear inside doubly-exponential loops, so every
finite-field oracle (affine points, the induced action on points, fixed
vectors of a semilinear module) runs on index arithmetic: the q elements are
coded 0..q-1 in the order of ``field.elements()``, so an element's index is
the base-p integer whose digits, least significant first, are its
coordinates on the power basis.  :class:`SmallFieldTables` keeps the
log/antilog table of the first element g of order exactly q - 1, found by
powering coordinate ints, and builds a row of the product table (from the
logs) or the sum table (digit-wise addition mod p) when a scan first reads
it, so a scan pays for the rows it visits, not for q^2 entries.  It also
keeps the same logs on values, and the Zech logs of 1 - g^k, by which a
small extension field multiplies (see :mod:`galdescent.extension`).

There is one table set per field: an extension of F_p of order at most
``extension.TABULATED_ORDER`` (every one whose scan tables fit in the
default budget) builds its own on its first product or scan and keeps it,
so every product, scan, fixed-vector count and point action of one command
over that field reads the same tables, rows included.  The tables hold no
``FieldElement`` and only a weak reference to the field, so a field and its
tables are freed by reference counting; a prime field, which is shared by
the whole process, and a larger extension field get new tables per scan.
An automorphism becomes a permutation of the indices from its one image of g:
it is multiplicative, so g^k goes to sigma(g)^k.  That holds only for a
verified automorphism, and every element of a ``GaloisGroup`` is one: each
passed ``verify_automorphism`` or is a composite of elements that did.
:meth:`SmallFieldTables.evaluate` evaluates a polynomial at a whole list
of points given column by column, one list comprehension per factor of
each term; the induced action on points tabulates each image this way.
"""

import operator
import weakref
from itertools import product

from .errors import Budget, BudgetExceeded, FieldMismatch, InternalContradiction
from .fields import FieldElement
from .multipoly import MultiPolynomial


class SmallFieldTables:
    """Index-coded arithmetic for a finite field: elements are 0..q-1.

    ``mul[a]`` and ``add[a]`` are row a of the product and sum tables, each
    built when it is first read.  ``values`` lists the raw value of each
    index; ``value_log``, ``value_antilog`` and ``zech`` are the logarithm
    tables on values that a tabulated extension field multiplies by (see
    :mod:`galdescent.extension`).  The tables hold no ``FieldElement`` and
    only a weak reference to the field, which owns them."""

    def __init__(self, field):
        self._field = weakref.ref(field)
        p = field.characteristic
        n = getattr(field, "degree", None)
        # table entries are these shared int objects, not fresh ones
        self.ints = ints = list(range(p ** (n or 1)))
        # an index's value: the int itself over F_p, its base-p digits
        # (least significant first) over GF(p^n)
        self.values = ints if n is None else list(tuples(range(p), n))
        self.q = q = len(ints)
        self._weights = [p ** k for k in range(n or 1)]
        self.zero = zero = ints[0]
        self.antilog = antilog = _antilog(field, ints, self._weights)
        self.log = log = [0] * q
        for k, v in enumerate(antilog):
            log[v] = k
        # -1 is p - 1, or 1 in characteristic 2
        self.log_minus_one = log[p - 1]
        # a sum of two logs is below 2(q - 1), a difference above -(q - 1):
        # index either without reducing; the row builders hold no reference
        # to self (see _Rows)
        self.antilog_twice = twice = antilog + antilog
        values = self.values
        self.value_antilog = [values[v] for v in twice]
        self.value_log = dict(zip(self.value_antilog, range(q - 1)))
        # zech[k] is the log of 1 - g^k, None for k = 0: adding 1 to
        # -g^k raises its lowest base-p digit, the constant coordinate, by
        # one mod p
        self.zech = zech = [None] * (q - 1)
        for k in range(1, q - 1):
            v = twice[k + self.log_minus_one]
            zech[k] = log[v - v % p + (v + 1) % p]
        nonzero_logs = log[1:]
        self.mul = _Rows(lambda a: [zero] + [twice[log[a] + k] for k in nonzero_logs]
                         if a else [zero] * q)
        self.add = _Rows(lambda a: _sum_row(a, ints, p))
        self._powers = [[antilog[0]] * q, ints]

    @property
    def field(self):
        """The field, held weakly: it owns its tables, so a strong reference
        back would be a reference cycle."""
        return self._field()

    def powers(self, degree):
        """The power tables through ``degree``: entry e lists v^e for every
        index v.  The list is shared and grows on demand, so it may be
        longer."""
        powers, antilog = self._powers, self.antilog
        while len(powers) <= degree:
            e = len(powers)
            powers.append([self.zero] + [antilog[e * k % (self.q - 1)] for k in self.log[1:]])
        return powers

    def encode(self, element):
        """The index of a field element, read off its coordinates."""
        field = self.field
        if element.field is not field and element.field != field:
            raise FieldMismatch(f"{element.field} vs {field}")
        value = element.value
        if isinstance(value, int):
            return self.ints[value]
        return self.ints[sum(c * w for c, w in zip(value, self._weights))]

    def decode(self, point):
        """The field elements of a tuple of indices."""
        field, values = self.field, self.values
        return tuple(FieldElement(field, values[i]) for i in point)

    def permutation(self, automorphism):
        """The automorphism as a list: entry i is the index of its image of
        element i.

        It sends g^k to s^k, where g is the generator of the antilog table
        and s its image: one call of the automorphism, at g, and a product
        of logs per element.  Only a verified automorphism may be passed (see
        the module docstring)."""
        antilog = self.antilog
        # g is antilog[1], or antilog[0] = 1 over GF(2), where q - 1 = 1
        g = FieldElement(self.field, self.values[antilog[1 % len(antilog)]])
        image = self.encode(automorphism(g))
        step = self.log[image]
        perm = [self.zero] * self.q
        for k, v in enumerate(antilog):
            perm[v] = antilog[k * step % (self.q - 1)]
        return perm

    def evaluate(self, poly, columns, count):
        """The values of ``poly`` at ``count`` points given column by column
        (``columns[i]`` lists variable i's index at each point), as one
        column: a list comprehension per factor of each term and one per
        sum of two terms."""
        mul, add = self.mul, self.add
        powers = self.powers(max((e for exps in poly.terms for e in exps), default=0))
        total = None
        for exps, c in poly.terms.items():
            coeff = self.encode(c)
            factors = [(i, powers[e]) for i, e in enumerate(exps) if e]
            if factors:
                (i, table), *rest = factors
                row = mul[coeff]
                column = [row[table[x]] for x in columns[i]]
                for i, table in rest:
                    column = [mul[a][table[x]] for a, x in zip(column, columns[i])]
            else:
                column = [coeff] * count
            total = column if total is None else [add[a][b] for a, b in zip(total, column)]
        return [self.zero] * count if total is None else total


def _antilog(field, ints, weights):
    """g^0 .. g^(q-2) as indices, for the first element g (in index order)
    of order exactly q - 1: the first with g^((q-1)/r) != 1 for every
    prime r dividing q - 1, as the order of g divides q - 1 and is
    q - 1 exactly when it divides none of these.  Only that g is powered
    in full.  The powers are taken on coordinate ints, reduced by
    t^n = -(m_0 + ... + m_(n-1) t^(n-1)) for the monic modulus m of
    degree n.  Multiplication by g is F_p-linear, v * g = sum_j v_j (t^j g),
    so each step of the full powering sums the columns t^j g scaled by the
    digits v_j of the power before.  Each column is packed into one int, a
    slot of ``width`` bits per coordinate, and its multiples by every digit
    are listed, so a step is one sum of n ints, whose slots are then
    reduced mod p."""
    q, p, n = len(ints), field.characteristic, len(weights)
    reduction = [-c.value for c in field.modulus.coeffs[:n]] if n > 1 else []

    def times(a, b):
        raw = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                raw[i + j] += x * y
        for k in range(2 * n - 2, n - 1, -1):
            for i, m in enumerate(reduction):
                raw[k - n + i] += raw[k] * m
        return [c % p for c in raw[:n]]

    def power(a, e):
        # left to right from the top bit, as FieldElement.__pow__: no
        # product by 1 and no square past the last bit
        result = a
        for bit in bin(e)[3:]:
            result = times(result, result)
            if bit == "1":
                result = times(result, a)
        return result

    one = [1] + [0] * (n - 1)
    cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
    # indices below p code F_p, whose elements have order dividing p - 1
    for start in range(1 if n == 1 else p, q):
        g = [start // w % p for w in weights]
        if all(power(g, e) != one for e in cofactors):
            break
    powers = [ints[1]]
    if n == 1:
        # the index is the one coordinate
        k = start
        while k != 1:
            powers.append(ints[k])
            k = k * start % p
    else:
        # t^(j+1) * g is t^j * g shifted up, its top coordinate times t^n
        # added back
        columns = [g]
        for _ in range(n - 1):
            *low, top = columns[-1]
            columns.append([(x + top * m) % p for x, m in zip([0] + low, reduction)])
        # a slot holds a sum of n products of two digits
        width = (n * (p - 1) ** 2).bit_length()
        mask, shifts = (1 << width) - 1, [width * i for i in range(n)]
        packed = [sum(map(operator.lshift, column, shifts)) for column in columns]
        multiples = [[d * c for d in range(p)] for c in packed]
        value, k = g, start
        while k != 1:
            powers.append(ints[k])
            total = sum(map(list.__getitem__, multiples, value))
            value = [(total >> shift & mask) % p for shift in shifts]
            k = sum(map(operator.mul, value, weights))
    if len(powers) != q - 1:
        raise InternalContradiction(f"no element of order {q - 1} in {field!r}")
    return powers


class _Rows(dict):
    """Table rows by index, each made by ``build`` when it is first read.
    A builder that held the tables would make a reference cycle, which keeps
    them alive until the cyclic garbage collector runs."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, index):
        row = self[index] = self.build(index)
        return row


def prime_factors(m):
    """The distinct primes dividing m, by trial division."""
    primes, r = [], 2
    while r * r <= m:
        if m % r == 0:
            primes.append(r)
            while m % r == 0:
                m //= r
        r += 1
    return primes + [m] if m > 1 else primes


def _sum_row(a, ints, p):
    """Row a of the sum table: indices add digit by digit mod p."""
    out, size = [0], 1
    while size < len(ints):
        # index = low + size * high: add one more base-p digit on top
        digit = a // size % p
        highs = [size * ((digit + h) % p) for h in range(p)]
        out = [low + high for high in highs for low in out]
        size *= p
    return [ints[v] for v in out]


def tuples(pool, arity):
    """All arity-tuples over ``pool``, in the order of the module docstring."""
    for digits in product(pool, repeat=arity):
        yield digits[::-1]


def _check_scan(field, nvars, budget):
    """Raise unless the field is finite and the q^nvars candidates and q x q
    table entries of a scan of field^nvars fit in the budget."""
    if not field.is_finite:
        raise BudgetExceeded("cannot enumerate points over an infinite field")
    q = field.order
    (budget or Budget()).check_scan(q ** nvars, q * q)


def solutions(generators, field, nvars, budget=None):
    """The solutions of the generator system in field^nvars as tuples of
    element indices, in :func:`tuples` order, and the field's tables that
    they index."""
    _check_scan(field, nvars, budget)
    # a tabulated extension field owns its table set; any other field gets
    # a new one
    tables = getattr(field, "tables", None) or SmallFieldTables(field)
    polys = [g for g in generators if not g.is_zero]
    if any(not any(map(any, g.terms)) for g in polys):
        # a nonzero constant vanishes nowhere
        return [], tables
    if nvars == 0:
        return [()], tables
    powers = tables.powers(max((e for g in polys for exps in g.terms for e in exps),
                               default=1))
    order, initial, updates, levels = _scan_plan(polys, nvars, tables, powers)
    memo = {}
    if nvars == 1:
        return [(v,) for v in _fibre(levels[0], initial, tables, powers, memo)], tables
    point = [tables.zero] * nvars
    hits = []
    # the slots that the last two levels read and an earlier level updates:
    # the others hold their initial sums at every node
    varying = {update[0] for level_updates in updates[:-2] for update in level_updates}
    keyslots = tuple(slot for level in levels[-2:] for start, stop in level
                     for slot in range(start, stop) if slot in varying)
    closing = (order[-2], order[-1], keyslots, updates[-2], levels[-2], levels[-1],
               tables, powers, memo, {}, hits)
    if nvars == 2:
        _close(point, initial, closing)
    mul, add = tables.mul, tables.add
    # sums[d]: the coefficient sums once the first d variables have values
    sums = [initial] * (nvars - 2)
    # an explicit stack over all but the last two variables: a recursive
    # closure would be a reference cycle that keeps the tables alive until
    # the cyclic garbage collector runs
    stack = [iter(_fibre(levels[0], initial, tables, powers, memo))] if nvars > 2 else []
    while stack:
        value = next(stack[-1], None)
        if value is None:
            stack.pop()
            continue
        depth = len(stack)
        point[order[depth - 1]] = value
        current = sums[depth - 1]
        if updates[depth - 1]:
            current = current.copy()
            for slot, acc, factors, table in updates[depth - 1]:
                for i, earlier in factors:
                    acc = mul[acc][earlier[point[i]]]
                current[slot] = add[current[slot]][mul[acc][table[value]]]
        if depth == nvars - 2:
            _close(point, current, closing)
        else:
            sums[depth] = current
            stack.append(iter(_fibre(levels[depth], current, tables, powers, memo)))
    hits.sort(key=lambda p: p[::-1])
    return hits, tables


def _close(point, current, closing):
    """Assign the last two variables below a node of the scan, whose sums
    are ``current``: the penultimate variable takes each value of its
    fibre, the last each root of the generators that the last level
    closes, and each point is appended to the hits.

    What a node yields below it depends only on its key: its sums in the
    slots that the last two levels read (but for those that no earlier
    level updates, which are the same at every node), and for each term
    that the penultimate variable updates, the term's coefficient times its
    factors over earlier variables.  ``solved`` maps each key met in this
    scan to the slice of the hits that its first node appended; a node
    whose key repeats appends them again with its own prefix and solves
    nothing.  It holds one slice per key, so at most one per node of this
    level.  A new key is solved here: its penultimate fibre is found, the
    slots that the penultimate variable updates are computed as columns
    over the fibre, one list comprehension per term (or, for a fibre of
    one value, patched into the copy directly), and each value then
    patches its entries into one copy of ``current`` and asks
    :func:`_fibre` for the roots."""
    var, last, keyslots, updates, penultimate, level, tables, powers, memo, solved, hits = \
        closing
    mul = tables.mul
    key = list(map(current.__getitem__, keyslots))
    for slot, acc, factors, table in updates:
        for i, earlier in factors:
            acc = mul[acc][earlier[point[i]]]
        key.append(acc)
    key = tuple(key)
    solved_hits = solved.get(key)
    if solved_hits is not None:
        for hit in hits[solved_hits]:
            point[var], point[last] = hit[var], hit[last]
            hits.append(tuple(point))
        return
    start = len(hits)
    fibre = _fibre(penultimate, current, tables, powers, memo)
    if fibre:
        add = tables.add
        products = key[len(keyslots):]
        sums, patches = current.copy(), []
        if len(fibre) == 1:
            # one value: its updates go straight into the copy
            value = fibre[0]
            for (slot, _, _, table), acc in zip(updates, products):
                sums[slot] = add[sums[slot]][mul[acc][table[value]]]
        else:
            columns = {}
            for (slot, _, _, table), acc in zip(updates, products):
                row = mul[acc]
                column = columns.get(slot)
                if column is None:
                    base = add[current[slot]]
                    columns[slot] = [base[row[table[v]]] for v in fibre]
                else:
                    columns[slot] = [add[c][row[table[v]]] for c, v in zip(column, fibre)]
            patches = list(columns.items())
        for k, value in enumerate(fibre):
            for slot, column in patches:
                sums[slot] = column[k]
            roots = _fibre(level, sums, tables, powers, memo)
            if roots:
                point[var] = value
                for root in roots:
                    point[last] = root
                    hits.append(tuple(point))
    solved[key] = slice(start, len(hits))


def _scan_plan(polys, nvars, tables, powers):
    """The order in which :func:`solutions` assigns the variables, and the
    running sums that give each generator's coefficients in the variable
    that closes it, its last one, constant term first.

    The next variable is one of a generator with the fewest unassigned
    variables, the highest-numbered one: with no generator left to close,
    the variables come in :func:`tuples` order, slowest first.  The
    coefficients are the slots of one list, returned with the terms that
    have no other variable; then come, for each position d, the other terms
    whose deepest variable is assigned at d, to be added once it has its
    value, each as (slot, coefficient, factors over the earlier variables,
    power table of the deepest one), and the (start, stop) slot range of
    each generator that d closes."""
    supports = [{i for exps in g.terms for i, e in enumerate(exps) if e} for g in polys]
    order = []
    unassigned = set(range(nvars))
    while unassigned:
        pending = [s & unassigned for s in supports if s & unassigned]
        var = max(min(pending, key=len) if pending else unassigned)
        order.append(var)
        unassigned.discard(var)
    position = {var: k for k, var in enumerate(order)}
    initial, updates, levels = [], [[] for _ in order], [[] for _ in order]
    for g, support in zip(polys, supports):
        closing = max(position[i] for i in support)
        var = order[closing]
        # the generator's other variables, in the order they are assigned
        others = [i for i in order[:closing] if i in support]
        start = len(initial)
        initial += [tables.zero] * (1 + max(exps[var] for exps in g.terms))
        for exps, c in g.terms.items():
            slot = start + exps[var]
            factors = [(i, powers[exps[i]]) for i in others if exps[i]]
            if factors:
                deepest, table = factors.pop()
                updates[position[deepest]].append(
                    (slot, tables.encode(c), tuple(factors), table))
            else:
                # the one term of this power of var with no other variable
                initial[slot] = tables.encode(c)
        levels[closing].append((start, len(initial)))
    return order, initial, updates, levels


def _fibre(level, sums, tables, powers, memo):
    """The values, ascending, of a level's variable at which every generator
    that the level closes vanishes, its coefficients read from ``sums``.

    A generator of degree 1 in the variable has one root, by one
    subtraction of logs, or every value or none when its slope is 0.  The first other generator
    met while every value is still possible keys ``memo`` with its
    coefficient tuple: its roots depend on the key alone, so one memo
    serves every level.  It is cleared once it holds q keys.  Each later
    generator is evaluated only at the roots that survive the ones before
    it, and none is looked at once no root survives."""
    ints = roots = tables.ints
    zero = tables.zero
    for start, stop in level:
        if stop - start == 2:
            constant, slope = sums[start], sums[start + 1]
            if slope != zero:
                # -constant / slope by one subtraction of logs
                log = tables.log
                root = (tables.antilog_twice[log[constant] - log[slope] + tables.log_minus_one]
                        if constant != zero else zero)
                roots = [root] if roots is ints or root in roots else []
            elif constant != zero:
                roots = []
        elif roots is ints:
            key = tuple(sums[start:stop])
            roots = memo.get(key)
            if roots is None:
                if len(memo) >= tables.q:
                    memo.clear()
                roots = memo[key] = _roots(key, ints, tables, powers)
        else:
            roots = _roots(sums[start:stop], roots, tables, powers)
        if not roots:
            break
    return roots


def _roots(coeffs, candidates, tables, powers):
    """The candidates, in their order, at which the polynomial with
    coefficient tuple ``coeffs`` (constant term first) vanishes."""
    mul, add, zero = tables.mul, tables.add, tables.zero
    values = [coeffs[0]] * len(candidates)
    for c, table in zip(coeffs[1:], powers[1:]):
        if c != zero:
            row = mul[c]
            values = [add[v][row[table[r]]] for v, r in zip(values, candidates)]
    return [r for r, v in zip(candidates, values) if v == zero]


def affine_points(generators, field, nvars, budget=None):
    """All solutions of the generator system in field^nvars, as tuples of
    field elements."""
    hits, tables = solutions(generators, field, nvars, budget)
    return [tables.decode(point) for point in hits]


def count_affine_points(generators, field, nvars, budget=None):
    return len(solutions(generators, field, nvars, budget)[0])


def count_fixed_vectors(module, budget=None):
    """How many vectors of ext^n every v -> c_sigma * sigma(v) of the module
    fixes.  Over GF(p^d) each sigma is x -> x^(p^k), so these are the points
    of sum_j c_sigma[r][j] * v_j^(p^k) - v_r = 0, one equation per group
    element and row, counted by the pruned scan."""
    group = module.group
    ext = group.ext
    n = module.dim
    _check_scan(ext, n, budget)
    # t^(p^k) for k = 0 .. d - 1: the image of t under x -> x^(p^k)
    frobenius = [ext.generator]
    for _ in range(ext.degree - 1):
        frobenius.append(frobenius[-1] ** ext.characteristic)
    v = MultiPolynomial.ring_vars(ext, tuple(f"v{j}" for j in range(n)))
    system = []
    for sigma, c in zip(group.elements, module.cocycle):
        power = ext.characteristic ** frobenius.index(sigma.image)
        system += [sum((a * x ** power for a, x in zip(row, v) if a), -v[r])
                   for r, row in enumerate(c.rows)]
    return count_affine_points(system, ext, n, budget)
