"""Weil restriction of scalars for affine schemes along finite separable
extensions, with its universal property checked by explicit point
enumeration, the conjugate-product count identity, and the etale splitting
K (x) Omega = Omega[x]/(f) = Omega^d of K = k[t]/(f).

The splitting is computed in Omega[x]/(f), not in a tensor algebra: the
idempotent of an embedding tau is f / (x - tau(t)), from one synthetic
division, scaled to 1 at tau(t).  Two checks certify it, that this value is
nonzero and that the d idempotents sum to one; ``etale_splitting`` proves
that they imply the rest.
"""

from .affine import AffineAlgebra, embeddings_into, split_coefficients
from .enumeration import algebra_points, count_affine_points
from .errors import (
    CountMismatch,
    FieldMismatch,
    MismatchFound,
    NotSeparable,
)
from .flat import FiniteAlgebra
from .groebner import Ideal
from .multipoly import MultiPolynomial
from .unipoly import is_squarefree


class SeparableExtensionData:
    """A finite separable extension with its embeddings into a declared
    splitting field (pairwise distinct roots of the modulus)."""

    __slots__ = ("K", "omega", "embeddings")

    def __init__(self, K, omega, embeddings):
        if not is_squarefree(K.modulus):
            raise NotSeparable(f"{K.modulus.format()} is not squarefree")
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

    __slots__ = ("source", "restricted", "substitution", "data", "raw_components")

    def __init__(self, source, restricted, substitution, data, raw_components):
        self.source = source
        self.restricted = restricted
        self.substitution = substitution
        self.data = data
        self.raw_components = raw_components


def _restriction_names(variables, d):
    names = []
    for v in variables:
        for j in range(d):
            names.append(f"{v}_{j}")
    return tuple(names)


def weil_restrict(V, data):
    """Coordinate-expansion construction: substitute the power-basis
    expansion of each variable, then split every relation into its base
    components."""
    K = data.K
    if V.field != K:
        raise FieldMismatch("scheme is not over the extension being restricted")
    d = K.degree
    base = K.base
    names = _restriction_names(V.variables, d)
    substitution = {}
    powers = K.power_basis()
    for v in V.variables:
        acc = MultiPolynomial.zero(K, names)
        for j in range(d):
            y = MultiPolynomial.variable(K, names, f"{v}_{j}")
            acc = acc + y * powers[j]
        substitution[v] = acc
    raw_components = []
    for g in V.relations.generators:
        raw_components.extend(split_coefficients(g.substitute(substitution), K))
    restricted = AffineAlgebra(
        base, names, Ideal(base, names, raw_components))
    return RestrictionResult(V, restricted, substitution, data, raw_components)


class UniversalPointReport:
    __slots__ = ("mode", "restricted_count", "source_count", "samples_checked")

    def __init__(self, mode, restricted_count, source_count, samples_checked=0):
        self.mode = mode
        self.restricted_count = restricted_count
        self.source_count = source_count
        self.samples_checked = samples_checked


def verify_universal_points(result, test_algebra, budget=None, samples=None):
    """Check that points of the restriction valued in a test algebra
    correspond exactly to points of the source valued in K tensor the test
    algebra.

    Finite base: both sides are enumerated and the coordinate-assembly map is
    verified to be a bijection.  Over Q, forward and backward well-definedness
    is checked on the supplied sample points and the report says "sampled".
    """
    V = result.source
    K = result.data.K
    base = K.base
    d = K.degree
    R = result.restricted

    tensor = FiniteAlgebra.tensor(FiniteAlgebra.from_extension(K), test_algebra)

    def embed_base_in_test(c):
        return test_algebra.scale(c, test_algebra.unit)

    def embed_k_in_tensor(c):
        return tensor.embed_left(K.coords(c))

    # t^j (x) 1 for j < d
    powers = [embed_k_in_tensor(p) for p in K.power_basis()]

    def assemble(point):
        """R-point (values in the test algebra, ordered by Y names) to the
        V-point with X_i = sum_j t^j (x) p_{i,j}."""
        out = []
        for i in range(len(V.variables)):
            acc = tensor.zero_vector()
            for j in range(d):
                right = tensor.embed_right(point[i * d + j])
                acc = tensor.add(acc, tensor.mul(powers[j], right))
            out.append(acc)
        return tuple(out)

    def v_point_ok(values):
        for g in V.relations.generators:
            if g.evaluate(values, embed=embed_k_in_tensor,
                          mul=tensor.mul, add=tensor.add) != tensor.zero_vector():
                return False
        return True

    if base.is_finite:
        r_points = algebra_points(list(R.relations.generators), test_algebra,
                                  len(R.variables), embed_base_in_test, budget)
        v_points = algebra_points(list(V.relations.generators), tensor,
                                  len(V.variables), embed_k_in_tensor, budget)
        images = set()
        for p in r_points:
            image = assemble(p)
            if not v_point_ok(image):
                raise MismatchFound(f"assembled point fails the source relations: {p}")
            images.add(image)
        if len(images) != len(r_points):
            raise MismatchFound("coordinate assembly is not injective")
        if images != set(v_points):
            raise MismatchFound("coordinate assembly is not onto the source points")
        return UniversalPointReport("exhaustive", len(r_points), len(v_points))

    samples = samples or []
    checked = 0
    for p in samples:
        image = assemble(p)
        ok_r = all(
            g.evaluate(p, embed=embed_base_in_test, mul=test_algebra.mul,
                       add=test_algebra.add) == test_algebra.zero_vector()
            for g in R.relations.generators)
        if ok_r and not v_point_ok(image):
            raise MismatchFound(f"sample {p} maps outside the source points")
        if not ok_r and v_point_ok(image):
            raise MismatchFound(f"sample {p} maps inside despite failing relations")
        checked += 1
    return UniversalPointReport("sampled", None, None, checked)


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


def conjugate_product_check(result, budget=None):
    """Count identity over the splitting field: the restriction has as many
    points as the product of the conjugate schemes."""
    V = result.source
    data = result.data
    omega = data.omega
    if not omega.is_finite:
        raise FieldMismatch("conjugate-product counting needs a finite field")
    R = result.restricted
    restricted_count = count_affine_points(
        R.extend_to(omega).relations.generators,
        omega, len(R.variables), budget)
    conjugate_counts = []
    for tau in data.embeddings:
        gens = [g.map_coeffs(tau, omega) for g in V.relations.generators]
        conjugate_counts.append(
            count_affine_points(gens, omega, len(V.variables), budget))
    product = 1
    for c in conjugate_counts:
        product *= c
    if restricted_count != product:
        raise CountMismatch(
            f"{restricted_count} restricted points vs conjugate product {product}")
    return ConjugateProductReport(restricted_count, conjugate_counts)
