"""Simple extension fields k[t]/(f) over Q or F_p.

An element is a residue polynomial of degree < n.  Its value is the tuple of
its n coordinates on the power basis 1, t, ..., t^(n-1), constant term first,
held as raw base values: ints in [0, p) over F_p, ``Fraction``s over Q.  The
value is canonical, so equal elements compare and hash equal however they
were built.  Arithmetic runs on these values, with no ``FieldElement`` per
coordinate: a product multiplies the nonzero coordinates as ints (over Q,
scaled to one common denominator), replaces t^n .. t^(2n-2) by their
reductions from a table, and makes one ``% p`` or one ``Fraction`` per
coordinate at the end.  An inverse is the raw extended gcd of the value and
the modulus's coefficients (:mod:`galdescent.unipoly`).  ``coords`` and
``from_coords`` are the boundary to the rest of the library: ``coords``
boxes the coordinates as base ``FieldElement``s (for matrices, tensor
algebras and printing), and ``from_coords`` checks that each lies in the
base field before it unboxes it.  Towers are out of scope: the base of an
extension is always Q or a prime field.
"""

from fractions import Fraction
from math import lcm
from operator import add, neg

from .enumeration import tuples
from .errors import (
    DivisionByZero,
    FieldMismatch,
    NotIrreducible,
    NotMonic,
    NotSquarefree,
)
from .fields import Field, FieldElement, PrimeField, RationalField
from .unipoly import UniPoly, default_modulus, is_irreducible_mod_p, is_squarefree, raw_xgcd

VERIFIED = "verified"
ASSERTED = "asserted"
UNASSERTED = "not-asserted"


class ExtensionField(Field):
    """k[t]/(modulus) for a monic squarefree modulus.

    ``irreducibility`` records how the field property was established:
    ``verified`` (checked over F_p), ``asserted`` (caller's claim over Q) or
    ``not-asserted`` (accepted over Q with the caller declining the claim, in
    which case the ring may have zero divisors and inversion can fail).
    """

    def __init__(self, base, modulus, irreducibility):
        if not isinstance(base, (PrimeField, RationalField)):
            raise FieldMismatch("extensions of extensions are not supported")
        self.base = base
        self.modulus = modulus
        self.degree = n = modulus.degree
        self.irreducibility = irreducibility
        # fields are immutable, so the hash of the modulus is taken once
        self._hash = hash(("ext", base, modulus.coeffs))
        # raw 0 and 1: ints over F_p, Fractions over Q
        self._zero, self._one = base.zero.value, base.one.value
        self._zero_tuple = (self._zero,) * n
        # x -> x % p, or None over Q, where values need no reduction
        self._mod = base.p.__rmod__ if base.is_finite else None
        # inverses by value; a finite field has at most q of them
        self._inverses = {} if base.is_finite else None
        # the modulus's raw coefficients, for inverses
        self._modulus_values = [c.value for c in modulus.coeffs]
        self._t_n = self._canon([-c for c in self._modulus_values[:n]])
        # the same as ints over one denominator
        terms = [self._scaled(sorted(power.items())) for power in self._sparse_high_powers()]
        self._high_denominator = d = lcm(*(e for _, e in terms))
        self._high_powers = [[(i, c * (d // e)) for i, c in pairs] for pairs, e in terms]

    def _sparse_high_powers(self):
        """t^n .. t^(2n-2) as dicts from index to nonzero coordinate: t^n is
        minus the lower coefficients of the monic modulus, and t^(k+1) is
        t^k shifted up plus its top coordinate times t^n.  Each step costs
        the nonzeros it touches, so for Phi_p, whose t^(n+1) .. are single
        terms, the whole table is linear in n."""
        n, mod = self.degree, self._mod
        t_n = {i: x for i, x in enumerate(self._t_n) if x}
        power, powers = t_n, []
        for _ in range(n - 1):
            powers.append(power)
            top = power.get(n - 1)
            power = {i + 1: x for i, x in power.items() if i != n - 1}
            if top:
                for i, y in t_n.items():
                    x = power.get(i, 0) + top * y
                    if mod:
                        x = mod(x)
                    if x:
                        power[i] = x
                    else:
                        power.pop(i, None)
        return powers

    def _canon(self, values):
        """The value with these exact coordinates: each reduced mod p over F_p."""
        mod = self._mod
        return tuple(map(mod, values)) if mod else tuple(values)

    def _terms(self, value):
        """(pairs, d): a pair (i, c * d) for each nonzero coordinate c of the
        value, with d a common denominator (1 over F_p)."""
        return self._scaled([(i, x) for i, x in enumerate(value) if x])

    def _scaled(self, pairs):
        """``_terms`` of the value with these (index, nonzero coordinate) pairs."""
        if self._mod:
            return pairs, 1
        d = lcm(*(x.denominator for _, x in pairs))
        return [(i, x.numerator * (d // x.denominator)) for i, x in pairs], d

    def _from_ints(self, ints, d):
        """The value ints / d: one ``% p`` or one ``Fraction`` per coordinate."""
        if self._mod:
            return tuple(map(self._mod, ints))
        zero = self._zero
        return tuple(Fraction(x, d) if x else zero for x in ints)

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
        return FieldElement(self, self._zero_tuple)

    @property
    def generator(self):
        # over a degree-1 modulus, t is congruent to t^n
        return FieldElement(self, self._t_n if self.degree == 1 else self._unit(1))

    def from_coords(self, coords):
        coords = tuple(coords)
        if len(coords) != self.degree:
            raise FieldMismatch(f"need {self.degree} coordinates, got {len(coords)}")
        return FieldElement(self, tuple(self._unbox(c) for c in coords))

    def _unbox(self, b):
        """The raw value of a base-field element."""
        if not isinstance(b, FieldElement) or (b.field is not self.base and b.field != self.base):
            raise FieldMismatch("coordinate not in base field")
        return b.value

    def from_base(self, b):
        return FieldElement(self, (self._unbox(b),) + self._zero_tuple[1:])

    def from_int(self, n):
        return self.from_base(self.base.from_int(n))

    def from_unipoly(self, poly):
        poly = poly % self.modulus
        return FieldElement(self, tuple(poly.coeff(i).value for i in range(self.degree)))

    def to_unipoly(self, a):
        return UniPoly(self.base, list(self.coords(a)))

    def coords(self, a):
        """The coordinates of ``a`` on the power basis, as base-field elements."""
        base = self.base
        return tuple(FieldElement(base, x) for x in a.value)

    def is_zero(self, a):
        return not any(a.value)

    def _add(self, a, b):
        if self._mod:
            return FieldElement(self, tuple(map(self._mod, map(add, a.value, b.value))))
        # a Fraction sum takes a gcd, and values over Q are often sparse
        return FieldElement(self, tuple(x + y if y else x for x, y in zip(a.value, b.value)))

    def _neg(self, a):
        return FieldElement(self, self._canon(map(neg, a.value)))

    def _mul(self, a, b):
        return FieldElement(self, self._from_ints(*self._mul_values(a.value, b.value)))

    def _sub_mul(self, a, b, c):
        product, d = self._mul_values(b, c)
        a, da = self._terms(a)
        value = [-y * da for y in product]
        for i, x in a:
            value[i] += x * d
        value = self._from_ints(value, da * d)
        return value if any(value) else None

    def _mul_values(self, a, b):
        """The product of values a and b as (ints, d), the exact coordinates
        times d, before any reduction mod p: the product of polynomials with
        t^n .. t^(2n-2) replaced by their ``_high_powers``.  It runs on the
        nonzero coordinates as ints, so over Q it makes no Fraction."""
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
        of this field.  Each a_j scales term(j) coordinate by coordinate."""
        out = list(self._zero_tuple)
        for j, c in enumerate(a.value):
            if c:
                for i, y in enumerate(term(j).value):
                    if y:
                        out[i] += c * y
        return FieldElement(self, self._canon(out))

    def _inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        if self._inverses is None:
            return self._xgcd_inverse(a)
        inverse = self._inverses.get(a.value)
        if inverse is None:
            inverse = self._inverses[a.value] = self._xgcd_inverse(a)
        return inverse

    def _xgcd_inverse(self, a):
        """s with s*a = 1 modulo the modulus, by the raw extended gcd."""
        g, s = raw_xgcd(list(a.value), self._modulus_values, self.characteristic)
        if len(g) != 1:
            raise DivisionByZero(
                f"{self.format_element(a)} is a zero divisor modulo {self.modulus.format()}")
        return FieldElement(self, tuple(s) + self._zero_tuple[len(s):])

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
        zeros = self._zero_tuple
        return zeros[:j] + (self._one,) + zeros[j + 1:]

    def mult_matrix_rows(self, a):
        """Rows of the base-field matrix of multiplication by ``a`` on the
        power basis: entry [r][c] is the r-th coordinate of a * t^c."""
        cols = [self.coords(a * b) for b in self.power_basis()]
        return [tuple(col[r] for col in cols) for r in range(self.degree)]

    def format_element(self, a):
        return self.to_unipoly(a).format()

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
    from .fields import GF

    base = GF(p)
    if modulus is None:
        return ExtensionField(base, default_modulus(p, n), VERIFIED)
    if modulus.degree != n:
        raise FieldMismatch(f"modulus degree {modulus.degree} != {n}")
    return make_extension(base, modulus)
