"""Brute-force point enumeration over finite fields and finite algebras.

Every exhaustive scan in the library runs through :func:`tuples`: the q^n
tuples over a pool of q values in base-q counting order, the first
coordinate varying fastest.  Elements of GF(p^n) (coordinates on the power
basis), elements of a finite algebra, default-modulus candidates and
candidate points are all listed in this order.

Solution sets are tiny but appear inside doubly-exponential loops, so every
finite-field oracle (affine points, the induced action on points, fixed
vectors of a semilinear module) runs on index arithmetic: the q elements are
coded 0..q-1 in the order of ``field.elements()``, so an element's index is
the base-p integer whose digits, least significant first, are its
coordinates on the power basis.  :class:`SmallFieldTables` builds the q x q
product and sum tables with O(q) field operations: products from a
log/antilog table over the first element of order exactly q - 1, found by
exhaustive powering; sums by digit-wise addition mod p.
"""

from itertools import product

from .errors import Budget, BudgetExceeded, FieldMismatch, InternalContradiction


class SmallFieldTables:
    """Index-coded arithmetic for a finite field: elements are 0..q-1."""

    def __init__(self, field):
        self.field = field
        self.elements = list(field.elements())
        q = len(self.elements)
        self.q = q
        p = field.characteristic
        # table entries are these shared int objects, not fresh ones
        self.ints = ints = list(range(q))
        self._weights = [p ** k for k in range(getattr(field, "degree", 1))]
        self.zero = zero = ints[0]
        antilog = self._antilog()
        log = [0] * q
        for k, v in enumerate(antilog):
            log[v] = k
        # a sum of two logs is below 2(q - 1): index it without reducing
        doubled = antilog + antilog
        nonzero_logs = log[1:]
        self.mul = [[zero] * q]
        for li in nonzero_logs:
            self.mul.append([zero] + [doubled[li + lj] for lj in nonzero_logs])
        add = [[ints[(i + j) % p] for j in range(p)] for i in range(p)]
        size = p
        while size < q:
            # index = low + size * high: add one more base-p digit on top
            add = [[ints[low + size * ((high_i + high_j) % p)]
                    for high_j in range(p) for low in add[low_i]]
                   for high_i in range(p) for low_i in range(size)]
            size *= p
        self.add = add

    def _antilog(self):
        """g^0 .. g^(q-2) as indices, for the first element g (in index
        order) whose powers return to 1 after exactly q - 1 steps."""
        q = self.q
        one = self.encode(self.field.one)
        ruled_out = [False] * q
        ruled_out[0] = True
        for start in range(1, q):
            if ruled_out[start]:
                continue
            g = self.elements[start]
            powers = [one]
            power, k = g, start
            while k != one:
                powers.append(k)
                power = power * g
                k = self.encode(power)
            if len(powers) == q - 1:
                return powers
            # every power of g lies in a proper subgroup
            for k in powers:
                ruled_out[k] = True
        raise InternalContradiction(f"no element of order {q - 1} in {self.field!r}")

    def encode(self, element):
        """The index of a field element, read off its coordinates."""
        if element.field is not self.field and element.field != self.field:
            raise FieldMismatch(f"{element.field} vs {self.field}")
        value = element.value
        if isinstance(value, int):
            return self.ints[value]
        return self.ints[sum(c.value * w for c, w in zip(value, self._weights))]

    def decode(self, point):
        """The field elements of a tuple of indices."""
        return tuple(self.elements[i] for i in point)

    def permutation(self, automorphism):
        """The automorphism as a list: entry i is the index of its image of
        element i."""
        return [self.encode(automorphism(e)) for e in self.elements]

    def compile_poly(self, poly):
        """Precompute per-variable power tables and the term list; returns an
        evaluator taking a tuple of element indices."""
        degrees = [0] * len(poly.variables)
        for exps in poly.terms:
            for i, e in enumerate(exps):
                degrees[i] = max(degrees[i], e)
        pow_tables = []
        one = self.encode(self.field.one)
        for d in degrees:
            table = [[one] * (d + 1) for _ in range(self.q)]
            for v in range(self.q):
                for e in range(1, d + 1):
                    table[v][e] = self.mul[table[v][e - 1]][v]
            pow_tables.append(table)
        compiled = [(self.encode(c), exps) for exps, c in poly.terms.items()]
        mul = self.mul
        add = self.add
        zero = self.zero

        def evaluate(point):
            total = zero
            for coeff, exps in compiled:
                acc = coeff
                for i, e in enumerate(exps):
                    if e:
                        acc = mul[acc][pow_tables[i][point[i]][e]]
                total = add[total][acc]
            return total

        return evaluate


def tuples(pool, arity):
    """All arity-tuples over ``pool``, in the order of the module docstring."""
    for digits in product(pool, repeat=arity):
        yield digits[::-1]


def _scan_tables(field, nvars, budget):
    """The tables for a scan of field^nvars, built only once the field is
    finite and the q^nvars candidates and q x q table entries fit in the
    budget."""
    if not field.is_finite:
        raise BudgetExceeded("cannot enumerate points over an infinite field")
    q = field.order
    (budget or Budget()).check_scan(q ** nvars, q * q)
    return SmallFieldTables(field)


def solutions(generators, field, nvars, budget=None):
    """The solutions of the generator system in field^nvars as tuples of
    element indices, and the field's tables that they index."""
    tables = _scan_tables(field, nvars, budget)
    evaluators = [tables.compile_poly(g) for g in generators if not g.is_zero]
    zero = tables.zero
    hits = [point for point in tuples(tables.ints, nvars)
            if all(ev(point) == zero for ev in evaluators)]
    return hits, tables


def affine_points(generators, field, nvars, budget=None):
    """All solutions of the generator system in field^nvars, as tuples of
    field elements."""
    hits, tables = solutions(generators, field, nvars, budget)
    return [tables.decode(point) for point in hits]


def count_affine_points(generators, field, nvars, budget=None):
    return len(solutions(generators, field, nvars, budget)[0])


def count_fixed_vectors(module, budget=None):
    """How many vectors of ext^n every v -> c_sigma * sigma(v) of the module
    fixes, by exhaustive enumeration."""
    ext = module.group.ext
    tables = _scan_tables(ext, module.dim, budget)
    mul, add, zero = tables.mul, tables.add, tables.zero
    # per group element: sigma as a permutation, c_sigma as rows of
    # (column, nonzero entry) index pairs
    actions = [(tables.permutation(sigma),
                [[(j, tables.encode(a)) for j, a in enumerate(row) if a]
                 for row in c.rows])
               for sigma, c in zip(module.group.elements, module.cocycle)]

    def is_fixed(vec):
        for perm, rows in actions:
            conjugated = [perm[x] for x in vec]
            for row, x in zip(rows, vec):
                acc = zero
                for j, a in row:
                    acc = add[acc][mul[a][conjugated[j]]]
                if acc != x:
                    return False
        return True

    return sum(1 for vec in tuples(tables.ints, module.dim) if is_fixed(vec))


def algebra_points(generators, algebra, nvars, embed, budget=None):
    """Solutions valued in a finite commutative algebra.

    ``embed`` maps polynomial coefficients into the algebra; elements of the
    algebra are whatever :meth:`algebra.elements` yields, with arithmetic via
    ``algebra.add``/``algebra.mul``.
    """
    if not algebra.field.is_finite:
        raise BudgetExceeded("cannot enumerate over an infinite base field")
    (budget or Budget()).check_scan((algebra.field.order ** algebra.dim) ** nvars)
    elems = list(algebra.elements())
    gens = [g for g in generators if not g.is_zero]
    zero = algebra.zero_vector()
    return [point for point in tuples(elems, nvars)
            if all(g.evaluate(point, embed=embed, mul=algebra.mul, add=algebra.add) == zero
                   for g in gens)]
