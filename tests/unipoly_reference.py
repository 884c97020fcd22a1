"""The boxed univariate arithmetic: the reference for the raw kernel of
``galdescent.unipoly``.

``BoxedPoly`` is a ``UniPoly`` whose ring operations loop over
``FieldElement`` coefficients, as the library's own did before they became
wrappers over the raw kernel.  It compares and hashes equal to the
``UniPoly`` with the same coefficients, and every result of its operations
is again a ``BoxedPoly``.  The algorithms below (gcd, extended gcd, modular
powering, squarefreeness, Ben-Or's and Rabin's irreducibility tests, the
cyclotomic quotient recursion) run on it, so none of them touches the raw
kernel.
"""

import functools

from galdescent.errors import DivisionByZero
from galdescent.fields import QQ, FieldElement, is_prime
from galdescent.unipoly import UniPoly


class BoxedPoly(UniPoly):
    __slots__ = ()

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return BoxedPoly(self.field, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return BoxedPoly(self.field, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return BoxedPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return BoxedPoly(self.field, [c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return BoxedPoly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return BoxedPoly(self.field, out)

    __rmul__ = __mul__

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
        return BoxedPoly(self.field, quo), BoxedPoly(self.field, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def evaluate(self, point, embed=None):
        """Dense Horner evaluation at ``point``; ``embed`` maps coefficients
        into point's ring when the two differ."""
        embed = embed or (lambda c: c)
        acc = None
        for c in reversed(self.coeffs):
            acc = embed(c) if acc is None else acc * point + embed(c)
        if acc is None:
            return embed(self.field.zero)
        return acc


def boxed(f):
    """The BoxedPoly with the coefficients of f."""
    return BoxedPoly(f.field, f.coeffs)


def from_unipoly(F, poly):
    """The element of the extension F with the residue of poly modulo F's
    modulus, reduced by the boxed division."""
    rest = boxed(poly) % F.modulus
    return F.from_coords([rest.coeff(i) for i in range(F.degree)])


def poly_gcd(a, b):
    """Monic gcd."""
    a, b = boxed(a), boxed(b)
    while not b.is_zero:
        a, b = b, a % b
    return a * a.leading.inverse() if not a.is_zero else a


def poly_xgcd(a, b):
    """Returns (g, s, t) with s*a + t*b = g, g monic (or zero)."""
    field = a.field
    r0, r1 = boxed(a), boxed(b)
    s0, s1 = BoxedPoly(field, [field.one]), BoxedPoly.zero(field)
    t0, t1 = BoxedPoly.zero(field), BoxedPoly(field, [field.one])
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
    result = BoxedPoly(field, [field.one]) % modulus
    base = boxed(base) % modulus
    while exponent:
        if exponent & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        exponent >>= 1
    return result


def boxed_is_squarefree(f):
    d = BoxedPoly(f.field, [c * i for i, c in enumerate(f.coeffs) if i > 0])
    if d.is_zero:
        return f.degree == 0
    return poly_gcd(f, d).degree == 0


def boxed_ben_or(f):
    """Ben-Or's test on boxed polynomials."""
    if f.degree <= 0:
        return False
    x = BoxedPoly.x(f.field)
    xq = x
    for _ in range(f.degree // 2):
        xq = poly_powmod(xq, f.field.characteristic, f)
        if poly_gcd(xq - x, f).degree != 0:
            return False
    return True


def rabin_is_irreducible(f):
    """Rabin's test, kept as a reference: x^(p^n) = x mod f and
    gcd(x^(p^(n/q)) - x, f) = 1 for every prime q dividing n."""
    field, n = f.field, f.degree
    if n <= 0:
        return False
    x = BoxedPoly.x(field)
    powers = [x % f]
    for _ in range(n):
        powers.append(poly_powmod(powers[-1], field.characteristic, f))
    if powers[n] != powers[0]:
        return False
    primes = [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]
    return all(poly_gcd(powers[n // q] - x, f).degree == 0 for q in primes)


@functools.cache
def reference_cyclotomic(m):
    """The m-th cyclotomic polynomial by the quotient recursion
    t^m - 1 = prod over d | m of Phi_d, dividing boxed polynomials."""
    quotient = BoxedPoly.from_ints(QQ, [-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            quotient, remainder = quotient.divmod(reference_cyclotomic(d))
            assert remainder.is_zero
    return quotient
