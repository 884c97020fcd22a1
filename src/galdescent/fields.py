"""Exact base fields: the rationals and prime fields F_p.

Elements are immutable ``FieldElement`` values carrying a reference to their
field; all arithmetic is exact (``fractions.Fraction`` over Q, residues mod p
over a prime field).  Extension fields live in :mod:`galdescent.extension`.
"""

from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch, InvalidFieldParameter


class FieldElement:
    """An element of a :class:`Field`.  Arithmetic dispatches to the field."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(f"{other.field} vs {self.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field._add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field._add(self, self.field._neg(other))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field._add(other, self.field._neg(self))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return self.field._neg(self)

    def __pow__(self, exponent):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if not exponent:
            return self.field.one
        # left to right from the top bit: bit_length - 1 squarings and one
        # product per further set bit, so x ** 1 is x itself
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def inverse(self):
        return self.field._inv(self)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return ((other.field is self.field or other.field == self.field)
                and self.value == other.value)

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return not self.field.is_zero(self)

    def __repr__(self):
        return self.field.format_element(self)


class Field:
    """Common interface for exact fields."""

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    # subclasses supply: from_int, is_zero, _add, _neg, _mul, _inv,
    # characteristic, format_element, and (finite case) order/elements.
    # Extension fields also supply _sub_mul for the generic loop of the
    # Groebner kernel: ``_sub_mul(a, b, c)`` works on raw values, as the
    # kernel keeps them (a tuple of ints mod p over F_p, a pair of int
    # numerators and a denominator over Q), and returns the value a - b*c,
    # or None when that is zero, in one step with no intermediate b*c.
    # Over Q and F_p the kernel calls no hook: it reduces on the int values
    # themselves.


class RationalField(Field):
    """The field Q, with Fraction values."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    characteristic = 0
    is_finite = False

    def from_int(self, n):
        return FieldElement(self, Fraction(n))

    def from_fraction(self, num, den=1):
        return FieldElement(self, Fraction(num, den))

    def is_zero(self, a):
        # Fraction.__bool__ tests the numerator and allocates nothing
        return not a.value

    def _add(self, a, b):
        return FieldElement(self, a.value + b.value)

    def _neg(self, a):
        return FieldElement(self, -a.value)

    def _mul(self, a, b):
        return FieldElement(self, a.value * b.value)

    def _inv(self, a):
        if a.value == 0:
            raise DivisionByZero("1/0 in QQ")
        return FieldElement(self, 1 / a.value)

    def format_element(self, a):
        return str(a.value)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


# Miller-Rabin to the prime bases 2..41 decides primality exactly below
# MR_BOUND (Sorenson and Webster 2015); MR_BOUND itself is a strong
# pseudoprime to every one of them.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n):
    """Exact primality for n below MR_BOUND; larger n with no prime factor
    up to 41 raise InvalidFieldParameter."""
    if n < 2 or any(n % a == 0 for a in MR_BASES):
        return n in MR_BASES
    if n >= MR_BOUND:
        raise InvalidFieldParameter(f"{n} is too large to certify as prime")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Field):
    """The field F_p for a prime p, with int values in [0, p)."""

    _cache = {}

    def __new__(cls, p):
        field = cls._cache.get(p)
        if field is None:
            if not is_prime(p):
                raise InvalidFieldParameter(f"{p} is not prime")
            field = super().__new__(cls)
            field.p = p
            cls._cache[p] = field
        return field

    is_finite = True

    @property
    def characteristic(self):
        return self.p

    @property
    def order(self):
        return self.p

    def from_int(self, n):
        if isinstance(n, Fraction):
            if n.denominator % self.p == 0:
                raise DivisionByZero(f"denominator divisible by {self.p}")
            return FieldElement(self, n.numerator * pow(n.denominator, -1, self.p) % self.p)
        return FieldElement(self, n % self.p)

    def is_zero(self, a):
        return not a.value

    def _add(self, a, b):
        return FieldElement(self, (a.value + b.value) % self.p)

    def _neg(self, a):
        return FieldElement(self, -a.value % self.p)

    def _mul(self, a, b):
        return FieldElement(self, (a.value * b.value) % self.p)

    def _inv(self, a):
        if a.value == 0:
            raise DivisionByZero(f"1/0 in F_{self.p}")
        return FieldElement(self, pow(a.value, -1, self.p))

    def elements(self):
        for n in range(self.p):
            yield FieldElement(self, n)

    def format_element(self, a):
        return str(a.value)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def GF(p):
    return PrimeField(p)


def int_modulus(field):
    """p over GF(p) and 0 over QQ, as in unipoly's raw kernel: the modulus of
    a loop on int values; None over an extension field, whose loops run on
    its elements."""
    if field is QQ:
        return 0
    return field.p if isinstance(field, PrimeField) else None
