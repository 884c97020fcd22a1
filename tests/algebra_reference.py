"""Points valued in finite test algebras, kept out of the library as the
reference that ``weil.certify_restriction`` is tested against.

``VectorAlgebra`` adds to a ``FiniteAlgebra`` the element operations of a
ring of coordinate tuples (zero, sums, scalar multiples, the listing of all
elements over a finite field) and, for a tensor product, its two factors
and their embeddings a -> a (x) 1 and b -> 1 (x) b.  ``algebra_points``
lists the solutions of a system valued in such an algebra, and
``verify_universal_points`` checks R(A) = V(K (x) A) for one test algebra A
by listing both sides (over a finite base) or on sample points (over QQ).
"""

from galdescent.enumeration import tuples
from galdescent.errors import Budget, BudgetExceeded, MismatchFound, ShapeMismatch
from galdescent.flat import FiniteAlgebra, _pure_tensor


class VectorAlgebra(FiniteAlgebra):
    """A finite algebra with the arithmetic of its elements; ``factors`` is
    the pair (A, B) of a tensor product A (x) B, else None."""

    __slots__ = ("factors",)

    def _set(self, field, mu, unit, label):
        self.factors = None
        super()._set(field, mu, unit, label)

    @classmethod
    def tensor(cls, A, B):
        algebra = super().tensor(A, B)
        algebra.factors = (A, B)
        return algebra

    def zero_vector(self):
        return (self.field.zero,) * self.dim

    def add(self, u, v):
        self._check_length(u, v)
        return tuple(a + b for a, b in zip(u, v))

    def scale(self, c, v):
        return tuple(c * a for a in v)

    def embed_left(self, vec_a):
        """a (x) 1 for a tensor algebra."""
        return _pure_tensor(self.field, vec_a, self._tensor_factors()[1].unit).col(0)

    def embed_right(self, vec_b):
        """1 (x) b for a tensor algebra."""
        return _pure_tensor(self.field, self._tensor_factors()[0].unit, vec_b).col(0)

    def _tensor_factors(self):
        if self.factors is None:
            raise ShapeMismatch("not a tensor algebra")
        return self.factors

    def elements(self):
        if not self.field.is_finite:
            raise BudgetExceeded("cannot enumerate over an infinite base field")
        yield from tuples(list(self.field.elements()), self.dim)


def dual_numbers(field):
    """k[eps]/(eps^2) on the basis 1, eps."""
    zero, one = field.zero, field.one
    return VectorAlgebra(field, [[(one, zero), (zero, one)], [(zero, one), (zero, zero)]],
                         (one, zero), label="k[eps]")


def evaluate_in(poly, point, embed, mul, add):
    """The value of ``poly`` at a point of any commutative ring: ``embed``
    maps its coefficients into the ring, ``mul`` and ``add`` are the ring's
    operations."""
    if len(point) != len(poly.variables):
        raise ShapeMismatch("point arity mismatch")
    total = None
    for exps, coeff in poly.terms.items():
        acc = embed(coeff)
        for value, e in zip(point, exps):
            for _ in range(e):
                acc = mul(acc, value)
        total = acc if total is None else add(total, acc)
    return embed(poly.field.zero) if total is None else total


def algebra_points(generators, algebra, nvars, embed, budget=None):
    """Solutions valued in a finite commutative algebra: ``embed`` maps
    polynomial coefficients into the algebra, whose elements are those that
    ``algebra.elements`` yields.  The candidates are checked against the
    budget before any element is listed."""
    if not algebra.field.is_finite:
        raise BudgetExceeded("cannot enumerate over an infinite base field")
    (budget or Budget()).check_scan((algebra.field.order ** algebra.dim) ** nvars)
    elems = list(algebra.elements())
    gens = [g for g in generators if not g.is_zero]
    zero = algebra.zero_vector()
    return [point for point in tuples(elems, nvars)
            if all(evaluate_in(g, point, embed, algebra.mul, algebra.add) == zero
                   for g in gens)]


class UniversalPointReport:
    __slots__ = ("mode", "restricted_count", "source_count", "samples_checked")

    def __init__(self, mode, restricted_count, source_count, samples_checked=0):
        self.mode = mode
        self.restricted_count = restricted_count
        self.source_count = source_count
        self.samples_checked = samples_checked


def verify_universal_points(result, test_algebra, budget=None, samples=None):
    """Check that points of the restriction valued in a test algebra (a
    ``VectorAlgebra``) correspond exactly to points of the source valued in
    K tensor the test algebra.

    Finite base: both sides are enumerated and the coordinate-assembly map is
    verified to be a bijection.  Over Q, forward and backward well-definedness
    is checked on the supplied sample points and the report says "sampled".
    """
    V = result.source
    K = V.field
    d = K.degree
    R = result.restricted

    tensor = VectorAlgebra.tensor(FiniteAlgebra.from_extension(K), test_algebra)

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
        return all(evaluate_in(g, values, embed_k_in_tensor, tensor.mul, tensor.add)
                   == tensor.zero_vector() for g in V.relations.generators)

    if K.base.is_finite:
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
            evaluate_in(g, p, embed_base_in_test, test_algebra.mul, test_algebra.add)
            == test_algebra.zero_vector()
            for g in R.relations.generators)
        if ok_r and not v_point_ok(image):
            raise MismatchFound(f"sample {p} maps outside the source points")
        if not ok_r and v_point_ok(image):
            raise MismatchFound(f"sample {p} maps inside despite failing relations")
        checked += 1
    return UniversalPointReport("sampled", None, None, checked)
