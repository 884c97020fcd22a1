"""Weil restriction of scalars for affine schemes along finite separable
extensions, with its universal property certified by one coordinate identity
per relation (``certify_restriction``), the conjugate-product count
identity, and the etale splitting K (x) Omega = Omega[x]/(f) = Omega^d of
K = k[t]/(f).

The restriction itself reads only K = k[t]/(f), the field of the scheme.
The embeddings of K into a splitting field Omega
(``SeparableExtensionData``) are the input of the two oracles alone.  Every
extension of Q or F_p is separable, so ``NotSeparable`` means that Omega
holds fewer than d = [K : k] roots of f, not that K is inseparable.

The splitting is computed in Omega[x]/(f), not in a tensor algebra: the
idempotent of an embedding tau is f / (x - tau(t)), from one synthetic
division, scaled to 1 at tau(t).  Two checks certify it, that this value is
nonzero and that the d idempotents sum to one; ``etale_splitting`` proves
that they imply the rest.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

from .affine import AffineAlgebra, embeddings_into
from .enumeration import count_affine_points
from .errors import (
    Budget,
    CountMismatch,
    FieldMismatch,
    MismatchFound,
    NotSeparable,
)
from .extension import ExtensionField
from .fields import FieldElement
from .groebner import Ideal
from .multipoly import MultiPolynomial


class SeparableExtensionData:
    """A finite separable extension with its embeddings into a declared
    splitting field.  The embeddings send t to pairwise distinct roots of
    the modulus, one per unit of its degree d: d distinct roots make the
    modulus squarefree, so no separate squarefree test runs."""

    __slots__ = ("K", "omega", "embeddings")

    def __init__(self, K, omega, embeddings):
        if len(embeddings) != K.degree:
            raise NotSeparable(
                f"found {len(embeddings)} embeddings, need {K.degree}")
        if len({e.image for e in embeddings}) != len(embeddings):
            raise NotSeparable("embeddings are not pairwise distinct")
        self.K = K
        self.omega = omega
        self.embeddings = list(embeddings)

    @classmethod
    def discover(cls, K, omega, group=None):
        return cls(K, omega, embeddings_into(K, omega, group))

    @property
    def degree(self):
        return self.K.degree


class RestrictionResult:
    """The restricted algebra over the base plus the exact coordinate
    substitution X_i -> sum_j t^j Y_{i,j}.

    ``raw_components`` keeps all d components per source relation, zeros
    included, so the pre-reduction count is d times the source generator
    count; the presented algebra drops the zero ones."""

    __slots__ = ("source", "restricted", "substitution", "raw_components")

    def __init__(self, source, restricted, substitution, raw_components):
        self.source = source
        self.restricted = restricted
        self.substitution = substitution
        self.raw_components = raw_components


def _restriction_names(variables, d):
    return tuple(f"{v}_{j}" for v in variables for j in range(d))


def weil_restrict(V, budget=None):
    """Restrict V from its field K = k[t]/(f) to k by coordinate expansion:
    each relation g at X_i = sum_j t^j Y_ij, split along the power basis
    into its d components over k (Bosch, Luetkebohmert and Raynaud, *Neron
    Models*, 7.6).  A factor X_i^e of a term expands to at most
    C(d + e - 1, e) monomials and the term to at most their product; the
    sum over all terms is checked against the budget's points before
    anything is expanded.

    The expansion runs on raw values.  (sum_j t^j Y_j)^e is read from a
    table, built once per exponent and shared by every variable and
    relation, of its monomials Y^alpha with their multinomial ints and
    powers t^s.  A term c * X^e then gives, for each choice of one row per
    variable, the monomial of the concatenated alphas with coefficient the
    product of the multinomials times c * t^s, s the sum of the powers;
    c * t^s is formed once per s and value of c, as int numerators over
    one denominator (ints mod p over F_p).  The Y-degrees of a monomial
    are the exponents of the term it came from, so no two products fall on
    one monomial and nothing is summed.  Each component is read off the
    nonzero numerators, one base element per nonzero coordinate."""
    K = V.field
    if not isinstance(K, ExtensionField):
        raise FieldMismatch("only a scheme over an extension field can be restricted")
    d = K.degree
    (budget or Budget()).check_expansion(sum(
        math.prod(math.comb(d + e - 1, e) for e in exps)
        for g in V.relations.generators for exps in g.terms))
    base, p = K.base, K.characteristic
    names = _restriction_names(V.variables, d)
    powers, width = K.power_basis(), len(names)
    substitution = {
        v: MultiPolynomial(K, names, {
            tuple(int(k == i * d + j) for k in range(width)): power
            for j, power in enumerate(powers)})
        for i, v in enumerate(V.variables)}

    if p:
        def coordinate(x, den):
            return FieldElement(base, x % p)
    else:
        def coordinate(x, den):
            return FieldElement(base, Fraction(x, den))

    tables, shifts = {}, {}
    t = K.generator.value
    raw_components = []
    for g in V.relations.generators:
        components = [{} for _ in range(d)]
        for exps, c in g.terms.items():
            # (monomial, multinomial, s) for the products of the rows so far
            rows = [((), 1, 0)]
            for e in exps:
                if e not in tables:
                    tables[e] = _power_table(d, e, p)
                rows = [(m + alpha, k * a, s + r) for m, k, s in rows
                        for alpha, a, r in tables[e]]
            # the values of c * t^s, and their (pairs, den), for s = 0, 1, ...
            if c.value not in shifts:
                shifts[c.value] = ([c.value], [K._terms(c.value)])
            values, shifted = shifts[c.value]
            for m, k, s in rows:
                while len(shifted) <= s:
                    values.append(K._from_ints(*K._mul_values(values[-1], t)))
                    shifted.append(K._terms(values[-1]))
                pairs, den = shifted[s]
                for j, x in pairs:
                    components[j][m] = coordinate(k * x, den)
        raw_components.extend(MultiPolynomial(base, names, terms) for terms in components)
    restricted = AffineAlgebra(base, names, Ideal(base, names, raw_components))
    return RestrictionResult(V, restricted, substitution, raw_components)


def _power_table(d, e, p):
    """(alpha, multinomial, s) for each monomial Y^alpha of
    (sum_j t^j Y_j)^e in d variables Y_j: alpha the exponent tuple, the
    multinomial e! / prod_j alpha_j! (mod p over F_p, where the rows it
    kills are dropped) and s = sum_j j * alpha_j, the power of t."""
    table = []
    for js in combinations_with_replacement(range(d), e):
        alpha = [0] * d
        for j in js:
            alpha[j] += 1
        multinomial = math.factorial(e)
        for j in set(js):
            multinomial //= math.factorial(alpha[j])
        if p:
            multinomial %= p
        if multinomial:
            table.append((tuple(alpha), multinomial, sum(js)))
    return table


def certify_restriction(result):
    """Prove that ``result`` presents Res_{K/k} of its source.

    For each source relation g, with g_0 .. g_{d-1} its components in
    ``raw_components``, the identity g(sum_j t^j Y_j) = sum_j t^j g_j(Y)
    must hold in K[Y] with every g_j over k, and the presented ideal must be
    generated by exactly the nonzero g_j.  As 1, t, .., t^(d-1) is a basis
    of K (x) A over A, that makes R(A) = V(K (x) A) for every k-algebra A
    at once (Bosch, Luetkebohmert and Raynaud, *Neron Models*, 7.6).  Both
    sides are built by Horner in t, the left one by ``evaluate``, so the
    check shares no code with the substitution of ``weil_restrict``.
    Raises ``MismatchFound`` at the first relation that fails."""
    V, R = result.source, result.restricted
    K = V.field
    d = K.degree
    t = K.generator
    components = result.raw_components
    if (R.field != K.base or R.variables != _restriction_names(V.variables, d)
            or len(components) != d * len(V.relations.generators)
            or any(g.field != K.base for g in components)
            or R.relations.generators != tuple(g for g in components if not g.is_zero)):
        raise MismatchFound("the presented ideal is not generated by the nonzero components")

    def horner(coefficients):
        acc = coefficients[-1]
        for c in reversed(coefficients[:-1]):
            acc = acc * t + c
        return acc

    Y = MultiPolynomial.ring_vars(K, R.variables)
    point = [horner(Y[i:i + d]) for i in range(0, len(Y), d)]
    zero = MultiPolynomial.zero(K, R.variables)
    for n, g in enumerate(V.relations.generators):
        right = horner([c.map_coeffs(K.from_base, K) for c in components[n * d:(n + 1) * d]])
        if zero + g.evaluate(point) != right:
            raise MismatchFound(
                f"{g.format()} at X = sum_j t^j Y_j is not the sum of its components")


def etale_splitting(data):
    """Orthogonal idempotents of K (x) Omega, one per embedding, summing to
    one; their existence is exactly separability.

    With K = k[t]/(f), K (x) Omega is R = Omega[x]/(f), x = t (x) 1.  For an
    embedding tau with root r = tau(t), one synthetic division gives
    q = f / (x - r).  Its remainder is f(r), which ``Embedding`` proved zero,
    so (x - r) q = f.  The idempotent is e = q / q(r), and two things are
    checked: q(r) != 0, and the e of all embeddings sum to 1.  The rest
    follows.  From (x - r) e = 0 in R, g e = g(r) e for every g in R.  Any
    other root s differs from r (``SeparableExtensionData`` checks this), so
    f(s) = (s - r) q(s) = 0 gives e(s) = 0, and the idempotents of s and r
    are orthogonal.  With e(r) = 1, e^2 = e(r) e = e, and e R = Omega e is
    nonzero of dimension n = [Omega : k] over k; as the e sum to 1, R is the
    direct sum of the d components.  That is O(d^2) products in Omega, with
    no tensor algebra, no products of pairs of idempotents and no rank.

    Each idempotent is returned as a vector of the tensor algebra
    ``FiniteAlgebra.tensor(K, Omega)``: coordinate j of the x^i coefficient
    sits at index i * n + j, and the vectors follow the embedding order.
    """
    K = data.K
    omega = data.omega
    d = K.degree
    f = [omega.from_base(c) for c in K.modulus.coeffs]
    zero = omega.zero
    total = [zero] * d
    idempotents = []
    for tau in data.embeddings:
        r = tau.image
        # q = f / (x - r), leading coefficient first; the remainder is f(r)
        q = [f[d]]
        for c in reversed(f[1:d]):
            q.append(c + r * q[-1])
        value = zero
        for c in q:
            value = value * r + c
        if not value:
            raise NotSeparable(
                f"f / (x - {omega.format_element(r)}) vanishes at its root")
        scale = value.inverse()
        e = [c * scale for c in reversed(q)]
        total = [a + b for a, b in zip(total, e)]
        idempotents.append(tuple(x for c in e for x in omega.coords(c)))
    if total != [omega.one] + [zero] * (d - 1):
        raise NotSeparable("idempotents do not sum to one")
    return idempotents


class ConjugateProductReport:
    __slots__ = ("restricted_count", "conjugate_counts")

    def __init__(self, restricted_count, conjugate_counts):
        self.restricted_count = restricted_count
        self.conjugate_counts = conjugate_counts


def conjugate_product_check(result, data, budget=None):
    """Count identity over the splitting field: the restriction has as many
    points as the product of the conjugates of its source, one per embedding
    of ``data``, whose extension must be the source's field.  Identical
    conjugate systems are counted once."""
    V = result.source
    if V.field != data.K:
        raise FieldMismatch("scheme is not over the extension being restricted")
    omega = data.omega
    if not omega.is_finite:
        raise FieldMismatch("conjugate-product counting needs a finite field")
    R = result.restricted
    restricted_count = count_affine_points(
        R.extend_to(omega).relations.generators,
        omega, len(R.variables), budget)
    counts = {}
    conjugate_counts = []
    for tau in data.embeddings:
        gens = tuple(g.map_coeffs(tau, omega) for g in V.relations.generators)
        if gens not in counts:
            counts[gens] = count_affine_points(gens, omega, len(V.variables), budget)
        conjugate_counts.append(counts[gens])
    product = 1
    for c in conjugate_counts:
        product *= c
    if restricted_count != product:
        raise CountMismatch(
            f"{restricted_count} restricted points vs conjugate product {product}")
    return ConjugateProductReport(restricted_count, conjugate_counts)
