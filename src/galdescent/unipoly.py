"""Univariate polynomials over an exact field: one raw kernel, and
``UniPoly``, its boxed face.

The arithmetic runs on raw coefficient lists, lowest degree first: ints in
[0, p) over F_p, ``Fraction``s over Q (or ints, where every divisor is
monic with int coefficients).  Each ``raw_*`` function and the private
helpers ``_sub``, ``_mul`` and ``_scale`` take p, or 0 over Q, and make no
``FieldElement``: division with remainder, the monic gcd, the extended gcd
that inverts modulo a polynomial, and modular powering, whose products over
F_p are one big-int multiplication by Kronecker substitution (von zur
Gathen and Gerhard, *Modern Computer Algebra*, 8.4).

``UniPoly`` is the boxed face of that kernel: coefficients are base-field
``FieldElement``s, stored lowest degree first with no trailing zeros; the
zero polynomial has degree -1.  It is what documents parse into, what
reports print and what an extension field keeps as its modulus.  Its ring
operations unbox once, call the kernel and box the result once; only
``evaluate``, whose point lies in an extension field, works on boxed
values.  The public tests (squarefreeness, Ben-Or's irreducibility test
over F_p) and constructors (the default modulus of GF(p^n), cyclotomic
polynomials) take and return ``UniPoly``s and run on raw lists inside.
"""

from fractions import Fraction

from .enumeration import prime_factors, tuples
from .errors import Budget, DivisionByZero, FieldMismatch, InvalidFieldParameter, NotIrreducible
from .fields import GF, QQ, FieldElement


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(n) for n in ints])

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def _p(self, other):
        """p, or 0 over Q, once ``other`` (a polynomial or a scalar) is
        found to share this polynomial's field."""
        if other.field != self.field:
            raise FieldMismatch(f"{other.field} vs {self.field}")
        return self.field.characteristic

    def __add__(self, other):
        p = self._p(other)
        return UniPoly.from_ints(self.field, _sub(_raw(self), _scale(_raw(other), -1, p), p))

    def __sub__(self, other):
        return UniPoly.from_ints(self.field, _sub(_raw(self), _raw(other), self._p(other)))

    def __neg__(self):
        return UniPoly.from_ints(self.field, _scale(_raw(self), -1, self.field.characteristic))

    def __mul__(self, other):
        p = self._p(other)
        if isinstance(other, FieldElement):
            return UniPoly.from_ints(self.field, _scale(_raw(self), other.value, p))
        return UniPoly.from_ints(self.field, _mul(_raw(self), _raw(other), p))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def divmod(self, other):
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        quo, rem = raw_divmod(_raw(self), _raw(other), self._p(other))
        return UniPoly.from_ints(self.field, quo), UniPoly.from_ints(self.field, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def evaluate(self, point):
        """The value at ``point``, an element of an extension of the
        coefficient field: Horner on the nonzero terms, multiplying by
        point^gap between consecutive exponents, each power computed once.
        Each coefficient stays in the base field and is added into
        coordinate 0 of the accumulator, so memory is O(degree) however many
        terms there are."""
        field, powers = point.field, {}

        def power(gap):
            if gap not in powers:
                powers[gap] = point ** gap
            return powers[gap]

        terms = [(i, c) for i, c in enumerate(self.coeffs) if c]
        if not terms:
            return field.zero
        high, c = terms.pop()
        acc = field.add_base(field.zero, c)
        for i, c in reversed(terms):
            acc, high = field.add_base(acc * power(high - i), c), i
        return acc * power(high) if high else acc

    def __repr__(self):
        return self.format()

    def format(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if not c:
                continue
            if i == 0:
                parts.append(repr(c))
            else:
                head = "" if c == self.field.one else f"{c!r}*"
                parts.append(f"{head}t" + (f"^{i}" if i > 1 else ""))
        return " + ".join(parts).replace("+ -", "- ")


def _inverse(c, p):
    """1/c for a nonzero raw coefficient: mod p; over Q (p = 0) a Fraction,
    or the int 1 for c = 1, so that division by a monic int polynomial
    stays on ints."""
    if p:
        return pow(c, -1, p)
    return 1 if c == 1 else 1 / Fraction(c)


def _canon(coeffs, p):
    """The list with each coefficient reduced mod p (over F_p) and its
    trailing zeros dropped, in place."""
    if p:
        coeffs[:] = [c % p for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _scale(a, c, p):
    return [x * c % p for x in a] if p else [x * c for x in a]


def _sub(a, b, p):
    """a - b."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _canon(out, p)


def _mul(a, b, p):
    """a * b.  Over F_p, one big-int product by Kronecker substitution: each
    list is packed into an int with slots wide enough for any coefficient
    of the product, and the product is read back slot by slot."""
    if not a or not b:
        return []
    count = len(a) + len(b) - 1
    if not p:
        out = [0] * count
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _canon(out, p)
    width = (min(len(a), len(b)) * (p - 1) ** 2).bit_length() // 8 + 1
    packed = _pack(a, width) * _pack(b, width)
    data = packed.to_bytes(width * count, "little")
    return _canon([int.from_bytes(data[i:i + width], "little")
                   for i in range(0, width * count, width)], p)


def _pack(coeffs, width):
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def raw_divmod(a, b, p):
    """(quotient, remainder) of a by a nonzero b.  Over F_p the remainder's
    coefficients are reduced only at the end, and each top one as it is
    divided out; the loop runs on the nonzero coefficients of b."""
    n = len(b) - 1
    inv = _inverse(b[-1], p)
    pairs = [(i, c) for i, c in enumerate(b[:n]) if c]
    rem = list(a)
    quo = [0] * max(0, len(rem) - n)
    for k in range(len(quo) - 1, -1, -1):
        top = rem.pop()
        if p:
            top %= p
        if top:
            q = quo[k] = top * inv % p if p else top * inv
            for i, c in pairs:
                rem[k + i] -= q * c
    return quo, _canon(rem, p)


def raw_gcd(a, b, p):
    """The monic gcd of a and b (empty when both are zero)."""
    while b:
        a, b = b, raw_divmod(a, b, p)[1]
    return _scale(a, _inverse(a[-1], p), p) if a else a


def raw_xgcd(a, b, p):
    """(g, s): the monic gcd g of a and b, and s with s*a = g modulo b.  An
    a shorter than b may keep trailing zeros: the first division drops them."""
    s0, s1 = [1], []
    while b:
        q, r = raw_divmod(a, b, p)
        a, b = b, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
    if not a:
        return a, s0
    inv = _inverse(a[-1], p)
    return _scale(a, inv, p), _scale(s0, inv, p)


def raw_powmod(base, exponent, modulus, p):
    """base^exponent modulo ``modulus``, over F_p."""
    result = raw_divmod([1], modulus, p)[1]
    base = raw_divmod(base, modulus, p)[1]
    while exponent:
        if exponent & 1:
            result = raw_divmod(_mul(result, base, p), modulus, p)[1]
        exponent >>= 1
        if exponent:
            base = raw_divmod(_mul(base, base, p), modulus, p)[1]
    return result


def _raw(f):
    """The raw coefficients of a UniPoly: ints mod p, Fractions over Q."""
    return [c.value for c in f.coeffs]


def is_squarefree(f):
    p = f.field.characteristic
    f = _raw(f)
    d = _canon([i * c for i, c in enumerate(f) if i], p)
    if not d:
        return len(f) == 1
    return len(raw_gcd(f, d, p)) == 1


def is_irreducible_mod_p(f):
    """Ben-Or's test over F_p: gcd(x^(p^i) - x, f) = 1 for i = 1 ... n/2, since
    a reducible f of degree n has an irreducible factor of degree at most n/2."""
    n, p = f.degree, f.field.characteristic
    if n <= 0:
        return False
    f, x = _raw(f), [0, 1]
    xq = x
    for _ in range(n // 2):
        xq = raw_powmod(xq, p, f, p)
        if len(raw_gcd(_sub(xq, x, p), f, p)) != 1:
            return False
    return True


def default_modulus(p, n):
    """Lexicographically least irreducible monic polynomial of degree n over
    F_p: candidates x^n + sum c_i x^i are scanned in increasing order of the
    base-p integer sum(c_i p^i)."""
    field = GF(p)
    if n == 1:
        return UniPoly.from_ints(field, [0, 1])
    if p > Budget().points:  # the scan lists range(p)
        raise InvalidFieldParameter(
            f"no default modulus for GF({p}^{n}): p exceeds {Budget().points}; give modulus=")
    for coeffs in tuples(range(p), n):
        f = UniPoly.from_ints(field, coeffs + (1,))
        if is_irreducible_mod_p(f):
            return f
    raise NotIrreducible(f"no irreducible polynomial of degree {n} over F_{p}")


_cyclotomic_cache = {}


def cyclotomic(m):
    """The m-th cyclotomic polynomial over Q.  With r = rad(m), the product
    of the primes p_1 .. p_k dividing m, Phi_m(t) = Phi_r(t^(m/r)); and
    Phi_r comes from Phi_1 = t - 1 by Phi_(np)(t) = Phi_n(t^p) / Phi_n(t)
    for each prime p not dividing n, an exact division by a monic integer
    polynomial.  Coefficients stay ints until the result is built."""
    if m in _cyclotomic_cache:
        return _cyclotomic_cache[m]
    coeffs, r = [-1, 1], 1
    for p in prime_factors(m):
        coeffs = raw_divmod(_spread(coeffs, p), coeffs, 0)[0]
        r *= p
    result = _cyclotomic_cache[m] = UniPoly.from_ints(QQ, _spread(coeffs, m // r))
    return result


def _spread(coeffs, k):
    """The int coefficients of f(t^k), lowest degree first, for those of f."""
    out = [0] * ((len(coeffs) - 1) * k + 1)
    out[::k] = coeffs
    return out
