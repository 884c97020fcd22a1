"""Dense univariate polynomials over an exact field.

Coefficients are stored lowest degree first with no trailing zeros; the zero
polynomial has degree -1.  This module also hosts the classical univariate
algorithms the rest of the library leans on: extended Euclid, squarefreeness,
irreducibility over F_p, cyclotomic polynomials, and the default modulus
policy for GF(p^n).
"""

from .enumeration import prime_factors, tuples
from .errors import Budget, DivisionByZero, InvalidFieldParameter, NotIrreducible
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

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return UniPoly(self.field, [c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.field, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def divmod(self, other):
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        lead_inv = other.leading.inverse()
        rem = list(self.coeffs)
        quo = [self.field.zero] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            q = rem[-1] * lead_inv
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - q * c
            while rem and not rem[-1]:
                rem.pop()
        return UniPoly(self.field, quo), UniPoly(self.field, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero:
            return self
        return self * self.leading.inverse()

    def derivative(self):
        return UniPoly(self.field, [c * i for i, c in enumerate(self.coeffs) if i > 0])

    def evaluate(self, point, embed=None):
        """Horner evaluation at ``point``; ``embed`` maps coefficients into
        point's ring when the two differ."""
        embed = embed or (lambda c: c)
        acc = None
        for c in reversed(self.coeffs):
            acc = embed(c) if acc is None else acc * point + embed(c)
        if acc is None:
            return embed(self.field.zero)
        return acc

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


def poly_gcd(a, b):
    """Monic gcd."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def poly_xgcd(a, b):
    """Returns (g, s, t) with s*a + t*b = g, g monic (or zero)."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = UniPoly(field, [field.one]), UniPoly.zero(field)
    t0, t1 = UniPoly.zero(field), UniPoly(field, [field.one])
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    scale = r0.leading.inverse()
    return r0 * scale, s0 * scale, t0 * scale


def poly_powmod(base, exponent, modulus):
    field = base.field
    result = UniPoly(field, [field.one]) % modulus
    base = base % modulus
    while exponent:
        if exponent & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        exponent >>= 1
    return result


def is_squarefree(f):
    d = f.derivative()
    if d.is_zero:
        return f.degree == 0
    return poly_gcd(f, d).degree == 0


def is_irreducible_mod_p(f):
    """Ben-Or's test over F_p: gcd(x^(p^i) - x, f) = 1 for i = 1 ... n/2, since
    a reducible f of degree n has an irreducible factor of degree at most n/2."""
    if f.degree <= 0:
        return False
    x = UniPoly.x(f.field)
    xq = x
    for _ in range(f.degree // 2):
        xq = poly_powmod(xq, f.field.characteristic, f)
        if poly_gcd(xq - x, f).degree != 0:
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
        coeffs = _monic_quotient(_spread(coeffs, p), coeffs)
        r *= p
    result = _cyclotomic_cache[m] = UniPoly.from_ints(QQ, _spread(coeffs, m // r))
    return result


def _spread(coeffs, k):
    """The int coefficients of f(t^k), lowest degree first, for those of f."""
    out = [0] * ((len(coeffs) - 1) * k + 1)
    out[::k] = coeffs
    return out


def _monic_quotient(num, den):
    """The int coefficients of num / den, for a monic den dividing num."""
    num, d = list(num), len(den) - 1
    quotient = [0] * (len(num) - d)
    for k in range(len(quotient) - 1, -1, -1):
        q = quotient[k] = num[k + d]
        if q:
            for i, c in enumerate(den):
                num[k + i] -= q * c
    return quotient
