"""Sparse multivariate polynomials and monomial orders.

Terms are a dict from exponent tuples to nonzero coefficients; the variable
list is an explicit ordered tuple of names shared by every polynomial of a
given ring context.  Coefficients may come from any of the library's fields.
``transform`` maps coefficients and substitutes variables (``substitute``,
the semilinear maps of descent data, Weil restriction): it computes each
power of an image once per call and adds every term into one dict, so its
cost is the products it makes.  The Groebner kernel works on its own packed
form (:mod:`galdescent.groebner`).
"""

from operator import add

from .errors import FieldMismatch, ShapeMismatch
from .fields import FieldElement


class MonomialOrder:
    """Total order on exponent tuples, exposed as a max-key function."""

    def __init__(self, kind, split=0):
        if kind not in ("lex", "grevlex", "block"):
            raise ValueError(f"unknown order {kind}")
        self.kind = kind
        self.split = split

    def key(self, exps):
        if self.kind == "lex":
            return exps
        if self.kind == "grevlex":
            return self._grevlex_key(exps)
        head, tail = exps[: self.split], exps[self.split:]
        return (self._grevlex_key(head), self._grevlex_key(tail))

    @staticmethod
    def _grevlex_key(exps):
        return (sum(exps), tuple(-e for e in reversed(exps)))

    def __repr__(self):
        if self.kind == "block":
            return f"block({self.split})"
        return self.kind


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def block_order(split):
    return MonomialOrder("block", split)


def _monomial_mul(a, b):
    return tuple(map(add, a, b))


class MultiPolynomial:
    __slots__ = ("field", "variables", "terms")

    def __init__(self, field, variables, terms):
        self.field = field
        self.variables = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def zero(cls, field, variables):
        return cls(field, variables, {})

    @classmethod
    def constant(cls, field, variables, value):
        if isinstance(value, int):
            value = field.from_int(value)
        return cls(field, variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, field, variables, name):
        exps = [0] * len(variables)
        exps[list(variables).index(name)] = 1
        return cls(field, variables, {tuple(exps): field.one})

    @classmethod
    def ring_vars(cls, field, variables):
        """The variable polynomials of k[variables], in order."""
        return tuple(cls.variable(field, variables, name) for name in variables)

    @property
    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if not isinstance(other, MultiPolynomial):
            raise TypeError(f"expected polynomial, got {type(other).__name__}")
        if other.field != self.field or other.variables != self.variables:
            raise FieldMismatch("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = MultiPolynomial.constant(self.field, self.variables, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                s = terms[e] + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
            else:
                terms[e] = c
        return MultiPolynomial(self.field, self.variables, terms)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = MultiPolynomial.constant(self.field, self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPolynomial(self.field, self.variables,
                               {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if isinstance(other, FieldElement):
            return MultiPolynomial(self.field, self.variables,
                                   {e: c * other for e, c in self.terms.items()})
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _monomial_mul(e1, e2)
                prod = c1 * c2
                if e in terms:
                    s = terms[e] + prod
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
                elif prod:
                    terms[e] = prod
        return MultiPolynomial(self.field, self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if not n:
            return MultiPolynomial.constant(self.field, self.variables, self.field.one)
        # left to right from the top bit: bit_length - 1 squarings and one
        # product per further set bit, so p ** 1 is p itself
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        return (isinstance(other, MultiPolynomial) and other.field == self.field
                and other.variables == self.variables and other.terms == self.terms)

    def __hash__(self):
        return hash((self.field, self.variables, frozenset(self.terms.items())))

    def leading(self, order):
        """(exponent tuple, coefficient) of the leading term."""
        exps = max(self.terms, key=order.key)
        return exps, self.terms[exps]

    def total_degree(self):
        if self.is_zero:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient_of(self, exps):
        return self.terms.get(exps, self.field.zero)

    def map_coeffs(self, func, field=None):
        out = {}
        target = field or self.field
        for e, c in self.terms.items():
            v = func(c)
            if v:
                out[e] = v
        return MultiPolynomial(target, self.variables, out)

    def substitute(self, images):
        """Replace each variable by ``images[name]`` (a polynomial of a common
        target ring); coefficients are embedded with identity."""
        return self.transform(lambda c: c, images)

    def transform(self, coeff_map, images):
        """Apply ``coeff_map`` to every coefficient and substitute variables
        by the polynomials in ``images`` (keyed by variable name); missing
        names keep the variable (which must then exist in the target ring).
        Each power of an image is computed once per call, when a term first
        needs it, and every term is added into one dict in place."""
        sample = next(iter(images.values()), None)
        if sample is None:
            target_field, target_vars = self.field, self.variables
        else:
            target_field, target_vars = sample.field, sample.variables
        # powers[k][e - 1] is the e-th power of the k-th variable's image
        powers = [[images[name] if name in images
                   else MultiPolynomial.variable(target_field, target_vars, name)]
                  for name in self.variables]
        constant = (0,) * len(target_vars)
        terms = {}
        for exps, coeff in self.terms.items():
            coeff = coeff_map(coeff)
            product = None
            for row, e in zip(powers, exps):
                if e:
                    while len(row) < e:
                        row.append(row[-1] * row[0])
                    product = row[e - 1] if product is None else product * row[e - 1]
            if product is None:
                products = ((constant, coeff),)
            else:
                products = ((m, coeff * c) for m, c in product.terms.items())
            for m, c in products:
                if not c:
                    continue
                old = terms.get(m)
                if old is None:
                    terms[m] = c
                else:
                    c = old + c
                    if c:
                        terms[m] = c
                    else:
                        del terms[m]
        return MultiPolynomial(target_field, target_vars, terms)

    def evaluate(self, point):
        """The value at ``point`` (a sequence aligned with the variable
        list), by the ring operations of the point's values: field elements,
        or polynomials over this field."""
        if len(point) != len(self.variables):
            raise ShapeMismatch("point arity mismatch")
        total = self.field.zero
        for exps, coeff in self.terms.items():
            for value, e in zip(point, exps):
                if e:
                    coeff = coeff * value ** e
            total = total + coeff
        return total

    def rename_ring(self, variables, positions):
        """Reinterpret in a larger ring: ``positions[i]`` is where the old
        i-th variable lands in ``variables``."""
        n = len(variables)
        out = {}
        for exps, coeff in self.terms.items():
            new = [0] * n
            for old_i, e in enumerate(exps):
                new[positions[old_i]] = e
            out[tuple(new)] = coeff
        return MultiPolynomial(self.field, tuple(variables), out)

    def __repr__(self):
        return self.format()

    def format(self):
        if self.is_zero:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=GREVLEX.key, reverse=True):
            coeff = self.terms[exps]
            mono = "*".join(
                f"{name}^{e}" if e > 1 else name
                for name, e in zip(self.variables, exps) if e)
            coeff_str = _format_coeff(coeff)
            if not mono:
                parts.append(coeff_str)
            elif coeff_str == "1":
                parts.append(mono)
            elif coeff_str == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff_str}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def _format_coeff(coeff):
    from .extension import ExtensionField

    field = coeff.field
    if isinstance(field, ExtensionField):
        poly = field.to_unipoly(coeff)
        if poly.degree <= 0:
            return repr(poly.coeff(0))
        return f"({poly.format()})"
    return repr(coeff)
