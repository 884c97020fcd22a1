"""Simple extension fields k[t]/(f) over Q or F_p.

Elements are residue polynomials of degree < n, stored as coordinate tuples
over the base field (constant term first).  Towers are out of scope: the base
of an extension is always Q or a prime field.
"""

from .enumeration import tuples
from .errors import (
    DivisionByZero,
    FieldMismatch,
    NotIrreducible,
    NotMonic,
    NotSquarefree,
)
from .fields import Field, FieldElement, PrimeField, RationalField
from .unipoly import UniPoly, default_modulus, is_irreducible_mod_p, is_squarefree, poly_xgcd

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
        self.degree = modulus.degree
        self.irreducibility = irreducibility
        # fields are immutable, so the hash of the modulus is taken once
        self._hash = hash(("ext", base, modulus.coeffs))
        self._zero_tuple = (base.zero,) * self.degree
        # inverses by coordinate tuple; a finite field has at most q of them
        self._inverses = {} if base.is_finite else None
        # reduction table for t^n .. t^(2n-2)
        self._high_powers = []
        xn = UniPoly(base, [base.zero] * self.degree + [base.one])
        power = xn % modulus
        for _ in range(self.degree - 1):
            self._high_powers.append(tuple(power.coeff(i) for i in range(self.degree)))
            power = (power * UniPoly.x(base)) % modulus

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
    def generator(self):
        coords = [self.base.zero] * self.degree
        if self.degree == 1:
            # t is congruent to the negated constant term of the modulus
            return FieldElement(self, (-self.modulus.coeff(0),))
        coords[1] = self.base.one
        return FieldElement(self, tuple(coords))

    def from_coords(self, coords):
        coords = tuple(coords)
        if len(coords) != self.degree:
            raise FieldMismatch(f"need {self.degree} coordinates, got {len(coords)}")
        return FieldElement(self, coords)

    def from_base(self, b):
        if b.field != self.base:
            raise FieldMismatch("coordinate not in base field")
        return FieldElement(self, (b,) + (self.base.zero,) * (self.degree - 1))

    def from_int(self, n):
        return self.from_base(self.base.from_int(n))

    def from_unipoly(self, poly):
        poly = poly % self.modulus
        return FieldElement(self, tuple(poly.coeff(i) for i in range(self.degree)))

    def to_unipoly(self, a):
        return UniPoly(self.base, list(a.value))

    def coords(self, a):
        return a.value

    def _zero_value(self):
        return self._zero_tuple

    def _add(self, a, b):
        return FieldElement(self, tuple(x + y for x, y in zip(a.value, b.value)))

    def _neg(self, a):
        return FieldElement(self, tuple(-x for x in a.value))

    def _mul(self, a, b):
        return FieldElement(self, self._mul_values(a.value, b.value))

    def _sub_mul(self, a, b, c):
        value = tuple(x - y for x, y in zip(a, self._mul_values(b, c)))
        return value if any(value) else None

    def _mul_values(self, a, b):
        """Coordinate tuple of the product of coordinate tuples a and b."""
        n = self.degree
        base = self.base
        zero = base.zero
        raw = [zero] * (2 * n - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    raw[i + j] = raw[i + j] + x * y
        out = list(raw[:n])
        for k in range(n, 2 * n - 1):
            c = raw[k]
            if not c:
                continue
            red = self._high_powers[k - n]
            for i in range(n):
                if red[i]:
                    out[i] = out[i] + c * red[i]
        return tuple(out)

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
        g, s, _ = poly_xgcd(self.to_unipoly(a), self.modulus)
        if g.degree != 0:
            raise DivisionByZero(
                f"{self.format_element(a)} is a zero divisor modulo {self.modulus.format()}")
        return self.from_unipoly(s * g.coeff(0).inverse())

    def elements(self):
        if not self.is_finite:
            raise FieldMismatch("cannot enumerate an infinite field")
        for coords in tuples(list(self.base.elements()), self.degree):
            yield FieldElement(self, coords)

    def power_basis(self):
        """1, t, ..., t^(n-1): the basis that element coordinates refer to."""
        basis = [self.one]
        for _ in range(self.degree - 1):
            basis.append(basis[-1] * self.generator)
        return basis

    def mult_matrix_rows(self, a):
        """Rows of the base-field matrix of multiplication by ``a`` on the
        power basis: entry [r][c] is the r-th coordinate of a * t^c."""
        cols = []
        current = a
        t = self.generator
        for _ in range(self.degree):
            cols.append(current.value)
            current = current * t
        return [tuple(cols[c][r] for c in range(self.degree)) for r in range(self.degree)]

    def format_element(self, a):
        return self.to_unipoly(a).format()

    def __eq__(self, other):
        return (
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
