"""Simple extension fields k[t]/(f) over Q or F_p.

An element is a residue polynomial of degree < n.  Its value holds its n
coordinates on the power basis 1, t, ..., t^(n-1), constant term first, as
ints.  Over F_p the value is the tuple of the coordinates, each in [0, p).
Over Q it is a pair (numerators, den): the coordinates are numerators[i] /
den, with den > 0 and gcd(den, *numerators) == 1, and zero is ((0,)*n, 1);
this is the usual integral form of a number-field element (Cohen, *A Course
in Computational Algebraic Number Theory*, 4.2).  The value is canonical, so
equal elements compare and hash equal however they were built.  Each base
kind has its own subclass, picked when the field is made, and arithmetic
runs on ints with no ``FieldElement`` or ``Fraction`` per coordinate.

Products come from one of two kernels, chosen once, when the field is made.
The polynomial kernel multiplies the nonzero coordinates, replaces
t^n .. t^(2n-2) by their reductions from a table of ints over one
denominator, and ends in one ``% p`` per coordinate, or over Q one gcd that
divides out the content.  An inverse is the raw extended gcd of the
numerators and the modulus's coefficients (:mod:`galdescent.unipoly`).
Over F_p it is memoized by value.  Over Q it runs on ints, the modulus
cleared of denominators once per field, and ends at s * numerators = c
for a nonzero int c, so the inverse is den * s / c in lowest terms.  An
extension of F_p of order q <= ``TABULATED_ORDER`` instead multiplies by
discrete logarithms to the base of a primitive element g (Lidl and
Niederreiter, *Finite Fields*, ch. 9): a product is g^(i + j) for the logs
i and j of its factors, an inverse g^-i, and the fused a - b*c of the
Groebner kernel a * (1 - g^(log b + log c - log a)), read off a Zech table
of the logs of 1 - g^k (Huber, "Some comments on Zech's logarithms", IEEE
Trans. Inf. Theory 36, 1990).  Each is a few list and dict lookups on the
coordinate tuples, which stay the values.  The tables are those of the
field's one :class:`~galdescent.enumeration.SmallFieldTables`, built on the
first product and shared with the field's point scans.  The bound is the
largest q whose q x q scan tables fit in the default point budget,
q^2 <= ``Budget().points``, so q <= 1414: a field that a scan may
tabulate anyway pays for its tables once.  A larger one keeps the
polynomial kernel, with no per-product test: no scan under the default
budget would share its tables, whose build grows with q (about 15 ms for
GF(2^12), where ``tests/large/fixed_shift_gf4096`` takes as long with
tables as without).

``coords`` and ``from_coords`` are the boundary to the rest of the library:
``coords`` boxes the coordinates as base ``FieldElement``s (over Q one
``Fraction`` each, for tensor algebras and printing), and ``from_coords``
checks that each lies in the base field before it unboxes it.
``coords_matrix`` builds the base-field ``Matrix`` whose columns are the
coordinates of given elements straight from their values, with no boxing.
Towers are out of scope: the base of an extension is always Q or a prime
field.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, neg

from .enumeration import SmallFieldTables, tuples
from .errors import (
    Budget,
    DivisionByZero,
    FieldMismatch,
    NotIrreducible,
    NotMonic,
    NotSquarefree,
)
from .fields import GF, Field, FieldElement, PrimeField, RationalField
from .unipoly import (
    UniPoly,
    cleared,
    default_modulus,
    is_irreducible_mod_p,
    is_squarefree,
    raw_xgcd,
)

# the largest order q whose q x q tables a scan under the default budget
# may build; a field up to it multiplies by logarithms
TABULATED_ORDER = isqrt(Budget().points)

VERIFIED = "verified"
ASSERTED = "asserted"
UNASSERTED = "not-asserted"


class ExtensionField(Field):
    """k[t]/(modulus) for a monic squarefree modulus.

    ``irreducibility`` records how the field property was established:
    ``verified`` (checked over F_p), ``asserted`` (caller's claim over Q) or
    ``not-asserted`` (accepted over Q with the caller declining the claim, in
    which case the ring may have zero divisors and inversion can fail).

    ``ExtensionField(base, ...)`` makes an instance of the subclass for the
    base's kind, which supplies the value routines: ``_dense`` and
    ``_from_ints`` (a value to and from ints over a denominator),
    ``coords``, ``_add``, ``_neg`` and ``_inverse_value``.
    """

    def __new__(cls, base, modulus, irreducibility):
        if cls is ExtensionField:
            if isinstance(base, PrimeField):
                cls = (_TabulatedExtensionOfFp if base.p ** modulus.degree <= TABULATED_ORDER
                       else _ExtensionOfFp)
            elif isinstance(base, RationalField):
                cls = _ExtensionOfQ
            else:
                raise FieldMismatch("extensions of extensions are not supported")
        return super().__new__(cls)

    def __init__(self, base, modulus, irreducibility):
        self.base = base
        self.modulus = modulus
        self.degree = n = modulus.degree
        self.irreducibility = irreducibility
        # fields are immutable, so the hash of the modulus is taken once
        self._hash = hash(("ext", base, modulus.coeffs))
        self._zero_value = self._from_ints([0] * n, 1)
        # the modulus's raw coefficients, for inverses; over Q cleared of
        # denominators, for the extended gcd on ints
        self._modulus_values = cleared([c.value for c in modulus.coeffs])
        self._t_n = self._from_base_values([(-c).value for c in modulus.coeffs[:n]])
        # t^n .. t^(2n-2) as (index, int) pairs over one denominator
        t_n, den = self._terms(self._t_n)
        powers = self._sparse_high_powers(dict(t_n), den)
        self._high_denominator = d = lcm(*(e for _, e in powers))
        self._high_powers = [[(i, c * (d // e)) for i, c in sorted(power.items())]
                             for power, e in powers]

    def _sparse_high_powers(self, t_n, den):
        """t^n .. t^(2n-2) as pairs (numerators, d) in lowest terms, the
        numerators a dict from index to nonzero int, given t^n as t_n / den:
        t^(k+1) is t^k shifted up plus its top coordinate times t^n.  Each
        step costs the nonzeros it touches, so for Phi_p, whose t^(n+1) ..
        are single terms, the whole table is linear in n."""
        n, p = self.degree, self.characteristic
        power, d, powers = t_n, den, []
        for _ in range(n - 1):
            powers.append((power, d))
            top = power.get(n - 1)
            power = {i + 1: x for i, x in power.items() if i != n - 1}
            if top:
                if den != 1:
                    power = {i: x * den for i, x in power.items()}
                    d *= den
                for i, y in t_n.items():
                    x = power.get(i, 0) + top * y
                    if p:
                        x %= p
                    if x:
                        power[i] = x
                    else:
                        power.pop(i, None)
                g = gcd(d, *power.values())
                if g != 1:
                    power, d = {i: x // g for i, x in power.items()}, d // g
        return powers

    @property
    def characteristic(self):
        return self.base.characteristic

    @property
    def is_finite(self):
        return self.base.is_finite

    @property
    def order(self):
        return self.base.order ** self.degree

    @property
    def zero(self):
        return FieldElement(self, self._zero_value)

    @property
    def generator(self):
        # over a degree-1 modulus, t is congruent to t^n
        return FieldElement(self, self._t_n if self.degree == 1 else self._unit(1))

    def from_coords(self, coords):
        coords = tuple(coords)
        if len(coords) != self.degree:
            raise FieldMismatch(f"need {self.degree} coordinates, got {len(coords)}")
        return FieldElement(self, self._from_base_values([self._unbox(c) for c in coords]))

    def _unbox(self, b):
        """The raw value of a base-field element."""
        if not isinstance(b, FieldElement) or (b.field is not self.base and b.field != self.base):
            raise FieldMismatch("coordinate not in base field")
        return b.value

    def _from_base_values(self, values):
        """The value with these raw base coordinates (ints mod p, or
        ``Fraction``s), taken over the lcm of their denominators."""
        d = lcm(*(x.denominator for x in values))
        return self._from_ints([x.numerator * (d // x.denominator) for x in values], d)

    def from_base(self, b):
        x = self._unbox(b)
        return FieldElement(self, self._from_ints([x.numerator] + [0] * (self.degree - 1),
                                                  x.denominator))

    def from_int(self, n):
        return self.from_base(self.base.from_int(n))

    def add_base(self, a, b):
        """a + b for an element b of the base field, added into coordinate 0
        of a's value, so that b is never made a dense value of its own."""
        x = self._unbox(b)
        ints, d = self._dense(a.value)
        e = x.denominator
        out = list(ints) if e == 1 else [y * e for y in ints]
        out[0] += x.numerator * d
        return FieldElement(self, self._from_ints(out, d * e))

    def to_unipoly(self, a):
        return UniPoly(self.base, list(self.coords(a)))

    def is_zero(self, a):
        return a.value == self._zero_value

    def _terms(self, value):
        """(pairs, d) for the value's ints over d: a pair (i, c) for each
        nonzero int c."""
        ints, d = self._dense(value)
        return [(i, x) for i, x in enumerate(ints) if x], d

    def _mul(self, a, b):
        return FieldElement(self, self._from_ints(*self._mul_values(a.value, b.value)))

    def _sub_mul(self, a, b, c):
        product, d = self._mul_values(b, c)
        a, da = self._terms(a)
        value = [-y * da for y in product]
        for i, x in a:
            value[i] += x * d
        value = self._from_ints(value, da * d)
        return None if value == self._zero_value else value

    def _mul_values(self, a, b):
        """The product of values a and b as (ints, d), the exact coordinates
        times d, before any reduction mod p or by the content: the product
        of polynomials with t^n .. t^(2n-2) replaced by their
        ``_high_powers``.  It runs on the nonzero coordinates as ints."""
        n = self.degree
        (a, da), (b, db) = self._terms(a), self._terms(b)
        raw = [0] * (2 * n - 1)
        for i, x in a:
            for j, y in b:
                raw[i + j] += x * y
        d = self._high_denominator
        out = raw[:n] if d == 1 else [x * d for x in raw[:n]]
        for c, reduction in zip(raw[n:], self._high_powers):
            if c:
                for i, r in reduction:
                    out[i] += c * r
        return out, da * db * d

    def combine(self, a, term):
        """sum a_j * term(j) over the nonzero coordinates a_j of ``a``, an
        element of any extension of this field's base; term(j) is an element
        of this field.  Each a_j scales the nonzero coordinates of term(j)
        into a sum over d, a common denominator of the terms so far."""
        coefficients, da = self._dense(a.value)
        out, d = [0] * self.degree, 1
        for j, c in enumerate(coefficients):
            if c:
                ints, e = self._dense(term(j).value)
                if d % e:
                    scale = e // gcd(d, e)
                    out, d = [x * scale for x in out], d * scale
                c *= d // e
                for i, y in enumerate(ints):
                    if y:
                        out[i] += c * y
        return FieldElement(self, self._from_ints(out, da * d))

    def _inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return FieldElement(self, self._inverse_value(a.value))

    def _xgcd(self, value):
        """(s, c) with s * ints = c modulo the modulus, for the ints of the
        value and a nonzero constant c (1 over F_p, a positive int over Q),
        by the raw extended gcd."""
        g, s = raw_xgcd(list(self._dense(value)[0]), self._modulus_values, self.characteristic)
        if len(g) != 1:
            raise DivisionByZero(
                f"{self.format_element(FieldElement(self, value))} is a zero divisor "
                f"modulo {self.modulus.format()}")
        return s, g[0]

    def elements(self):
        if not self.is_finite:
            raise FieldMismatch("cannot enumerate an infinite field")
        for value in tuples([b.value for b in self.base.elements()], self.degree):
            yield FieldElement(self, value)

    def power_basis(self):
        """1, t, ..., t^(n-1): the basis that element coordinates refer to."""
        return [FieldElement(self, self._unit(j)) for j in range(self.degree)]

    def _unit(self, j):
        """The value of t^j, for j < n."""
        ints = [0] * self.degree
        ints[j] = 1
        return self._from_ints(ints, 1)

    def coords_matrix(self, elements):
        """The base-field matrix whose j-th column holds the coordinates of
        the j-th of ``elements``, built from their values: over Q each
        column is scaled to the lcm of the denominators.  An element of
        another field raises FieldMismatch."""
        from .linalg import _lowest

        terms = []
        for a in elements:
            if a.field is not self and a.field != self:
                raise FieldMismatch(f"{a!r} is not in {self}")
            terms.append(self._terms(a.value))
        d = lcm(*(e for _, e in terms))
        rows = [{} for _ in range(self.degree)]
        for j, (pairs, e) in enumerate(terms):
            s = d // e
            for i, x in pairs:
                rows[i][j] = x * s
        return _lowest(self.base, self.degree, len(terms), rows, d)

    def mult_matrix(self, a):
        """The base-field matrix of multiplication by ``a`` on the power
        basis: column c holds the coordinates of a * t^c."""
        return self.coords_matrix([a * b for b in self.power_basis()])

    def format_element(self, a):
        """``a`` as its polynomial in t, read off its coordinates."""
        ints, d = self._dense(a.value)
        parts = []
        for i in range(len(ints) - 1, -1, -1):
            x = ints[i]
            if x:
                c = str(x) if d == 1 else str(Fraction(x, d))
                if i == 0:
                    parts.append(c)
                else:
                    head = "" if x == d else f"{c}*"
                    parts.append(f"{head}t" + (f"^{i}" if i > 1 else ""))
        return " + ".join(parts).replace("+ -", "- ") or "0"

    def format_coefficient(self, a):
        """``a`` as a coefficient: a base-field constant as itself, any other
        element in parentheses."""
        text = self.format_element(a)
        return f"({text})" if any(self._dense(a.value)[0][1:]) else text

    def __eq__(self, other):
        return other is self or (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_finite:
            return f"GF({self.base.p}^{self.degree})[{self.modulus.format()}]"
        return f"QQ[t]/({self.modulus.format()})"


class _ExtensionOfFp(ExtensionField):
    """An extension of F_p: a value is the tuple of its coordinates, ints
    in [0, p)."""

    def __init__(self, base, modulus, irreducibility):
        self._mod = base.p.__rmod__
        # inverse values by value, no elements: an element refers to the
        # field, so a memo of elements would be a reference cycle
        self._inverses = {}
        super().__init__(base, modulus, irreducibility)

    def _dense(self, value):
        """(ints, 1): the coordinates themselves."""
        return value, 1

    def _from_ints(self, ints, d):
        """The value of these exact coordinates (d is 1): each reduced mod p."""
        return tuple(map(self._mod, ints))

    def coords(self, a):
        """The coordinates of ``a`` on the power basis, as base-field elements."""
        base = self.base
        return tuple(FieldElement(base, x) for x in a.value)

    def _add(self, a, b):
        return FieldElement(self, tuple(map(self._mod, map(add, a.value, b.value))))

    def _neg(self, a):
        return FieldElement(self, tuple(map(self._mod, map(neg, a.value))))

    def _inv(self, a):
        value = self._inverses.get(a.value)
        if value is None:
            value = self._inverses[a.value] = super()._inv(a).value
        return FieldElement(self, value)

    def _inverse_value(self, value):
        s = self._xgcd(value)[0]
        return tuple(s) + self._zero_value[len(s):]


class _TabulatedExtensionOfFp(_ExtensionOfFp):
    """An extension of F_p of order at most ``TABULATED_ORDER``: products,
    fused a - b*c and inverses by the logarithms of its one
    ``SmallFieldTables``, shared with its point scans.  ``tables`` and the
    four tables the products read are set on the first read of any of
    them."""

    def __getattr__(self, name):
        # called only for an attribute not yet set
        if name not in ("tables", "_log", "_exp", "_zech", "_log_minus_one"):
            raise AttributeError(name)
        self.tables = tables = SmallFieldTables(self)
        self._log, self._exp = tables.value_log, tables.value_antilog
        self._zech, self._log_minus_one = tables.zech, tables.log_minus_one
        return getattr(self, name)

    def _mul(self, a, b):
        log = self._log
        i = log.get(a.value)
        if i is None:
            return a
        j = log.get(b.value)
        if j is None:
            return b
        return FieldElement(self, self._exp[i + j])

    def _sub_mul(self, a, b, c):
        log = self._log
        i, j = log.get(b), log.get(c)
        if i is None or j is None:
            return None if a == self._zero_value else a
        k = log.get(a)
        zech = self._zech
        if k is None:
            # 0 - b*c is g^(i + j) times -1
            return self._exp[(i + j + self._log_minus_one) % len(zech)]
        # a - b*c = a * (1 - g^(i + j - k))
        z = zech[(i + j - k) % len(zech)]
        return None if z is None else self._exp[k + z]

    def _inv(self, a):
        k = self._log.get(a.value)
        if k is None:
            raise DivisionByZero("inverse of zero")
        # g^-k is g^(2(q - 1) - k) in the doubled antilog list
        return FieldElement(self, self._exp[-k])


class _ExtensionOfQ(ExtensionField):
    """An extension of Q: a value is (numerators, den), the coordinates
    numerators[i] / den in lowest terms."""

    # no memo of inverses: Q has infinitely many elements
    _inverses = None

    def _dense(self, value):
        """(numerators, den): the value itself."""
        return value

    def _from_ints(self, ints, d):
        """The value ints / d for d > 0: the content divided out."""
        g = gcd(d, *ints)
        if g == 1:
            return tuple(ints), d
        return tuple(x // g for x in ints), d // g

    def coords(self, a):
        """The coordinates of ``a`` on the power basis, as base-field elements."""
        base, (numerators, den) = self.base, a.value
        return tuple(FieldElement(base, Fraction(x, den)) for x in numerators)

    def _add(self, a, b):
        (x, dx), (y, dy) = a.value, b.value
        if dx == dy:
            return FieldElement(self, self._from_ints(list(map(add, x, y)), dx))
        d = lcm(dx, dy)
        sx, sy = d // dx, d // dy
        return FieldElement(self, self._from_ints([u * sx + v * sy for u, v in zip(x, y)], d))

    def _neg(self, a):
        numerators, den = a.value
        return FieldElement(self, (tuple(map(neg, numerators)), den))

    def _inverse_value(self, value):
        # s * numerators = c, so den * s / c inverts numerators / den
        s, c = self._xgcd(value)
        den = value[1]
        return self._from_ints([x * den for x in s] + [0] * (self.degree - len(s)), c)


def make_extension(base, modulus, irreducible=None):
    """Build k[t]/(modulus).

    Over a prime field irreducibility is checked outright.  Over Q, the
    modulus is checked squarefree and the caller's irreducibility claim (or
    its absence) is recorded on the field.
    """
    if modulus.field != base:
        raise FieldMismatch("modulus is not over the declared base field")
    if modulus.degree < 1:
        raise NotMonic("modulus must have degree >= 1")
    if not modulus.is_monic:
        raise NotMonic(f"modulus {modulus.format()} is not monic")
    if isinstance(base, PrimeField):
        if not is_irreducible_mod_p(modulus):
            raise NotIrreducible(f"{modulus.format()} is reducible over F_{base.p}")
        status = VERIFIED
    else:
        if not is_squarefree(modulus):
            raise NotSquarefree(f"{modulus.format()} is not squarefree")
        status = ASSERTED if irreducible else UNASSERTED
    return ExtensionField(base, modulus, status)


def finite_field(p, n, modulus=None):
    """GF(p^n) with the default (lexicographically least) modulus unless one
    is supplied.  The default modulus is irreducible by construction, so only
    a supplied one goes through ``make_extension``'s irreducibility test."""
    base = GF(p)
    if modulus is None:
        return ExtensionField(base, default_modulus(p, n), VERIFIED)
    if modulus.degree != n:
        raise FieldMismatch(f"modulus degree {modulus.degree} != {n}")
    return make_extension(base, modulus)
