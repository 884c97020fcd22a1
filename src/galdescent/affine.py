"""Descent of affine algebras: descent data as semilinear automorphism
families, model construction by invariants and elimination, descent of ideals
and morphisms, descent from conjugate data, and the induced point actions
over finite fields.

A descent datum is stored as one presented algebra over the extension plus a
family of semilinear automorphisms theta_sigma (variable images with
sigma-conjugated coefficients); the conjugate-scheme picture is recovered in
:func:`descend_from_embeddings`.
"""

from .enumeration import solutions
from .errors import (
    Budget,
    CocycleViolation,
    ConditionAViolated,
    ConditionBViolated,
    FieldMismatch,
    IdentityNotTrivial,
    InternalContradiction,
    NotEquivariant,
    NotStable,
    NotWellDefined,
    SplittingCheckFailed,
    TransportNotRational,
)
from .extension import ExtensionField
from .galois import GeneratorMap
from .groebner import (
    Ideal,
    apply_semilinear,
    eliminate,
    ideal_equal,
)
from .multipoly import GREVLEX, MultiPolynomial, block_order


class AffineAlgebra:
    """A presented algebra: a coefficient field, variable names, relations."""

    __slots__ = ("field", "variables", "relations")

    def __init__(self, field, variables, relations=None):
        self.field = field
        self.variables = tuple(variables)
        if relations is None:
            relations = Ideal(field, self.variables, [])
        if relations.field != field or relations.variables != self.variables:
            raise FieldMismatch("relations live in a different ring")
        self.relations = relations

    @property
    def is_empty_scheme(self):
        return bool(self.relations.generators) and self.relations.is_unit_ideal()

    def vars(self):
        return MultiPolynomial.ring_vars(self.field, self.variables)

    def extend_to(self, ext):
        """The same presentation with coefficients embedded into an extension
        of the coefficient field."""
        if not isinstance(ext, ExtensionField) or ext.base != self.field:
            raise FieldMismatch("can only extend scalars to an extension of the base")
        gens = [g.map_coeffs(ext.from_base, ext) for g in self.relations.generators]
        return AffineAlgebra(ext, self.variables, Ideal(ext, self.variables, gens))

    def __repr__(self):
        gens = ", ".join(g.format() for g in self.relations.generators)
        return f"{self.field!r}[{', '.join(self.variables)}]" + (f"/({gens})" if gens else "")


class SemilinearAlgebraMap:
    """theta_sigma: conjugate coefficients by sigma, substitute variables."""

    __slots__ = ("sigma", "images")

    def __init__(self, sigma, images):
        self.sigma = sigma
        self.images = dict(images)

    def __call__(self, poly):
        return apply_semilinear(self.sigma, self.images, poly)

    def __repr__(self):
        body = ", ".join(f"{v} -> {p.format()}" for v, p in sorted(self.images.items()))
        return f"({self.sigma.name}; {body})"


class AffineDescentDatum:
    """An algebra over the extension plus one semilinear automorphism per
    group element, aligned with the group's element list."""

    __slots__ = ("algebra", "group", "maps")

    def __init__(self, algebra, group, maps):
        if algebra.field != group.ext:
            raise FieldMismatch("datum algebra must live over the group's field")
        if len(maps) != group.order:
            raise FieldMismatch("one semilinear map per group element required")
        self.algebra = algebra
        self.group = group
        self.maps = list(maps)


class DatumReport:
    __slots__ = ("pairs_checked",)

    def __init__(self, pairs_checked):
        self.pairs_checked = pairs_checked


def canonical_datum(algebra0, group):
    """Extend scalars and act by plain coefficient conjugation."""
    ext = group.ext
    algebra = algebra0.extend_to(ext)
    variables = MultiPolynomial.ring_vars(ext, algebra.variables)
    identity_images = dict(zip(algebra.variables, variables))
    maps = [SemilinearAlgebraMap(sigma, identity_images) for sigma in group.elements]
    return AffineDescentDatum(algebra, group, maps)


def validate_datum(datum, budget=None):
    """Well-definedness, identity triviality and the automorphism-composition
    law, all modulo the relations.  Each theta_sigma is then invertible: the
    law at (sigma, sigma^-1) and theta_id = id give its two-sided inverse."""
    budget = budget or Budget()
    algebra = datum.algebra
    group = datum.group
    relations = algebra.relations
    named = dict(zip(algebra.variables, algebra.vars()))

    ident = datum.maps[group.identity_index]
    for name, var in named.items():
        if not relations.contains(ident(var) - var, budget):
            raise IdentityNotTrivial(f"theta_id moves {name}")

    for idx, theta in enumerate(datum.maps):
        for g in relations.generators:
            if not relations.contains(theta(g), budget):
                raise NotWellDefined(group.elements[idx].name, g.format())

    pairs = 0
    for i in range(group.order):
        for j in range(group.order):
            k = group.compose(i, j)
            for name, var in named.items():
                composed = datum.maps[i](datum.maps[j].images[name])
                direct = datum.maps[k].images[name]
                if not relations.contains(composed - direct, budget):
                    raise CocycleViolation(
                        group.elements[i].name, group.elements[j].name,
                        f"on variable {name}")
            pairs += 1

    return DatumReport(pairs)


class Model:
    """A presented algebra over the base field with an explicit splitting:
    each model variable is sent to an invariant polynomial over the
    extension in the original variables."""

    __slots__ = ("algebra0", "splitting", "datum")

    def __init__(self, algebra0, splitting, datum):
        self.algebra0 = algebra0
        self.splitting = dict(splitting)
        self.datum = datum

    def __repr__(self):
        return f"Model({self.algebra0!r})"


def _model_variable_names(variables, degree):
    names = []
    for i in range(1, len(variables) + 1):
        for j in range(degree):
            names.append(f"T{i}_{j}")
    return tuple(names)


def _invariant_generators(datum):
    """The trace-twist family t_{i,j} = sum_sigma sigma(b_j) theta_sigma(x_i)
    over the power basis b_j; every t is fixed by the whole action."""
    return [_trace_twist([theta.images[name] for theta in datum.maps], datum.group)
            for name in datum.algebra.variables]


def _trace_twist(conjugates, group):
    """sum_sigma sigma(b) * conjugates[sigma] for each power-basis element b
    of the group's field, ``conjugates`` aligned with the group's elements."""
    ext = group.ext
    twists = []
    for b in ext.power_basis():
        acc = MultiPolynomial.zero(ext, conjugates[0].variables)
        for p, sigma in zip(conjugates, group.elements):
            acc = acc + p * sigma(b)
        twists.append(acc)
    return twists


def _graph_elimination(algebra, model_names, targets, budget):
    """Eliminate the original variables from relations + (T - t); returns the
    kernel ideal over the extension in the model variables."""
    ext = algebra.field
    joint = algebra.variables + model_names
    nx = len(algebra.variables)
    positions_x = list(range(nx))
    lifted = [g.rename_ring(joint, positions_x) for g in algebra.relations.generators]
    for k, name in enumerate(model_names):
        t_poly = targets[k].rename_ring(joint, positions_x)
        t_var = MultiPolynomial.variable(ext, joint, name)
        lifted.append(t_var - t_poly)
    graph = Ideal(ext, joint, lifted)
    return graph, eliminate(graph, model_names, budget)


def split_coefficients(poly, ext):
    """The base-field components of a polynomial over the extension along
    the power basis, one per basis element, zeros included:
    poly = sum_j t^j * component_j."""
    components = [{} for _ in range(ext.degree)]
    for exps, coeff in poly.terms.items():
        for terms, c in zip(components, ext.coords(coeff)):
            if c:
                terms[exps] = c
    return [MultiPolynomial(ext.base, poly.variables, terms) for terms in components]


def descend_algebra(datum, budget=None):
    """The affine descent construction, checked once under one budget: the
    datum is validated, the graph ideal of the invariants is eliminated once,
    and the model's coefficients are contracted; the splitting certificate
    then runs on that same graph and kernel."""
    budget = budget or Budget()
    validate_datum(datum, budget)
    algebra = datum.algebra
    ext = algebra.field

    flat_targets = [t for row in _invariant_generators(datum) for t in row]
    model_names = _model_variable_names(algebra.variables, ext.degree)
    graph, kernel = _graph_elimination(algebra, model_names, flat_targets, budget)

    components = []
    for g in kernel.generators:
        components.extend(split_coefficients(g, ext))
    model_ideal = Ideal(ext.base, model_names, components)
    model_ideal = Ideal(ext.base, model_names, model_ideal.groebner(GREVLEX, budget))

    algebra0 = AffineAlgebra(ext.base, model_names, model_ideal)
    model = Model(algebra0, dict(zip(model_names, flat_targets)), datum)
    if not _splits_on_graph(model, datum, graph, kernel, budget):
        raise SplittingCheckFailed("constructed model fails the splitting check")
    return model


def splits(model, datum, budget=None):
    """Whether the model's splitting intertwines the datum with plain
    coefficient conjugation: substitution well-defined, images fixed, the
    extended map onto, and the kernel exactly the model's relations."""
    budget = budget or Budget()
    model_names = model.algebra0.variables
    targets = [model.splitting[name] for name in model_names]
    graph, kernel = _graph_elimination(datum.algebra, model_names, targets, budget)
    return _splits_on_graph(model, datum, graph, kernel, budget)


def _splits_on_graph(model, datum, graph, kernel, budget):
    """The four checks of :func:`splits`, given the graph ideal of the
    splitting and its elimination kernel."""
    algebra = datum.algebra
    relations = algebra.relations
    extended = model.algebra0.extend_to(algebra.field).relations
    images = {name: model.splitting[name] for name in model.algebra0.variables}

    # substitution homomorphism is defined on the model's relations
    for g in extended.generators:
        if not relations.contains(g.substitute(images), budget):
            return False

    # every splitting image is an invariant of the action
    for t in images.values():
        for theta in datum.maps:
            if not relations.contains(theta(t) - t, budget):
                return False

    # onto: each original variable rewrites into the model variables alone
    for var in algebra.vars():
        if _rewrite_in_model(var, graph, budget) is None:
            return False

    # kernel equals the extension of the model's relations
    return ideal_equal(extended, kernel, budget)


def _rewrite_in_model(poly, graph, budget):
    """``poly``, over the original variables, reduced modulo the graph ideal
    under the block order that eliminates them: a polynomial in the model
    variables alone, or None when an original variable remains."""
    nx = len(poly.variables)
    reduced = graph.normal_form(poly.rename_ring(graph.variables, list(range(nx))),
                                block_order(nx), budget)
    if any(any(exps[:nx]) for exps in reduced.terms):
        return None
    return MultiPolynomial(poly.field, graph.variables[nx:],
                           {exps[nx:]: c for exps, c in reduced.terms.items()})


def descend_ideal(algebra0, group, W, budget=None):
    """Descend an extension-coefficient ideal in the coordinates of a base
    algebra; the ambient action is coefficient conjugation.  Returns the
    base-field ideal (including the ambient relations) whose extension
    recovers W."""
    budget = budget or Budget()
    ext = group.ext
    if algebra0.field != ext.base:
        raise FieldMismatch("ambient algebra must live over the base field")
    if W.field != ext or W.variables != algebra0.variables:
        raise FieldMismatch("ideal not over the extension in the ambient variables")
    ambient = algebra0.extend_to(ext).relations.generators
    full = Ideal(ext, W.variables, W.generators + ambient)

    for idx in group.generator_indices:
        sigma = group.elements[idx]
        for g in W.generators:
            if not full.contains(g.map_coeffs(sigma), budget):
                raise NotStable(sigma.name, g.format())

    components = []
    for g in W.generators:
        for twist in _trace_twist([g.map_coeffs(sigma) for sigma in group.elements], group):
            components.extend(split_coefficients(twist, ext))
    result = Ideal(ext.base, W.variables,
                   components + list(algebra0.relations.generators))
    result = Ideal(ext.base, W.variables, result.groebner(GREVLEX, budget))

    extended = AffineAlgebra(ext.base, W.variables, result).extend_to(ext)
    if not ideal_equal(extended.relations, full, budget):
        raise InternalContradiction("extension of the descended ideal differs")
    return result


def descend_morphism(datum_a, model_a, datum_b, model_b, alpha_images,
                     budget=None):
    """Descend an equivariant algebra map alpha from B's algebra to A's
    algebra (a scheme morphism Spec A -> Spec B).

    ``alpha_images``: variable of B -> polynomial over the extension in A's
    variables.  Returns the base-field images of the model-B variables in the
    model-A presentation; its extension provably agrees with alpha.
    """
    budget = budget or Budget()
    A = datum_a.algebra
    B = datum_b.algebra
    ext = A.field
    group = datum_a.group

    # well-defined on B's relations
    for g in B.relations.generators:
        if not A.relations.contains(g.substitute(alpha_images), budget):
            raise NotWellDefined("alpha", g.format())

    # equivariance theta^A_sigma(alpha(y)) = alpha(theta^B_sigma(y))
    for idx, sigma in enumerate(group.elements):
        for name in B.variables:
            lhs = datum_a.maps[idx](alpha_images[name])
            rhs = datum_b.maps[idx].images[name].substitute(alpha_images)
            if not A.relations.contains(lhs - rhs, budget):
                raise NotEquivariant(sigma.name, name)

    # transport through both splittings via the graph basis of A's model
    model_names_a = model_a.algebra0.variables
    targets_a = [model_a.splitting[name] for name in model_names_a]
    graph, _ = _graph_elimination(A, model_names_a, targets_a, budget)

    result = {}
    for u_name in model_b.algebra0.variables:
        dropped = _rewrite_in_model(
            model_b.splitting[u_name].substitute(alpha_images), graph, budget)
        if dropped is None:
            raise TransportNotRational(
                f"image of {u_name} does not rewrite into model variables")
        rational, *irrational = split_coefficients(dropped, ext)
        if any(not c.is_zero for c in irrational):
            raise TransportNotRational(
                f"image of {u_name} has an irrational coefficient")
        result[u_name] = rational

    # re-extension agrees with alpha modulo relations
    ext_images = {u: p.map_coeffs(ext.from_base, ext) for u, p in result.items()}
    splitting_a = {name: model_a.splitting[name] for name in model_names_a}
    for u_name in model_b.algebra0.variables:
        recomposed = ext_images[u_name].substitute(splitting_a)
        direct = model_b.splitting[u_name].substitute(alpha_images)
        if not A.relations.contains(recomposed - direct, budget):
            raise InternalContradiction("re-extension of descended morphism differs")

    # descended map respects the model relations
    for g in model_b.algebra0.relations.generators:
        if not model_a.algebra0.relations.contains(g.substitute(result), budget):
            raise InternalContradiction("descended morphism breaks model relations")
    return result


class Embedding(GeneratorMap):
    """A base-field embedding of one extension into another, stored as the
    image of the source generator."""

    __slots__ = ()

    def __init__(self, source, target, image, name):
        if source.base != target.base:
            raise FieldMismatch("embeddings must fix the base field")
        value = source.modulus.evaluate(image)
        if value:
            raise FieldMismatch("claimed embedding image is not a root")
        super().__init__(source, target, image, name)

    def __repr__(self):
        return f"{self.name}: K -> Omega, t -> {self.target.format_element(self.image)}"


def embeddings_into(K, omega, group=None):
    """All base-embeddings K -> Omega, as roots of K's modulus in Omega.

    When Omega is K with its automorphism group (over a finite field, the
    full group), the roots are the group orbit of the generator.  Otherwise
    a finite Omega is scanned exhaustively; over Q nothing else is supported."""
    if group is not None and group.ext == K == omega and (
            group.is_full or not omega.is_finite):
        roots = [sigma.image for sigma in group.elements]
    elif omega.is_finite:
        roots = [a for a in omega.elements()
                 if not K.modulus.evaluate(a)]
    else:
        raise FieldMismatch(
            "over Q, embeddings need Omega = K with its automorphism group")
    return [Embedding(K, omega, r, f"e{i}")
            for i, r in enumerate(sorted(roots, key=repr))]


def descend_from_embeddings(V, embeddings, group, family, budget=None):
    """Descend along a finite separable extension given compatible
    isomorphisms between the conjugate algebras.

    ``V``: algebra over K.  ``embeddings``: the embeddings of K into the
    group's field.  ``family``: dict (tau_index, sigma_index) -> variable
    images over Omega, the algebra map from the tau-conjugate to the
    sigma-conjugate (pullback of the scheme map sigmaV -> tauV).

    Verifies the composition condition and the conjugation-compatibility
    condition, assembles the induced datum on the first conjugate, and
    delegates to :func:`descend_algebra`.
    """
    budget = budget or Budget()
    omega = group.ext
    d = len(embeddings)
    conjugates = []
    for emb in embeddings:
        gens = [g.map_coeffs(emb, omega) for g in V.relations.generators]
        conjugates.append(AffineAlgebra(omega, V.variables,
                                        Ideal(omega, V.variables, gens)))

    def images_of(tau_idx, sigma_idx):
        key = (tau_idx, sigma_idx)
        if key not in family:
            raise FieldMismatch(f"family entry {key} missing")
        return family[key]

    # well-definedness: the (tau, sigma) map sends tau-relations into
    # sigma-relations
    for (tau_idx, sigma_idx), images in family.items():
        for g in conjugates[tau_idx].relations.generators:
            if not conjugates[sigma_idx].relations.contains(g.substitute(images), budget):
                raise FieldMismatch(
                    f"family entry ({tau_idx}, {sigma_idx}) does not map "
                    "conjugate relations correctly")

    # condition (a): composition
    for rho in range(d):
        for sigma in range(d):
            for tau in range(d):
                left = images_of(tau, sigma)
                right = images_of(sigma, rho)
                direct = images_of(tau, rho)
                for name in V.variables:
                    composed = left[name].substitute(right)
                    if not conjugates[rho].relations.contains(
                            composed - direct[name], budget):
                        raise ConditionAViolated(rho, sigma, tau)

    # condition (b): conjugation compatibility
    def embedding_index(image):
        for i, emb in enumerate(embeddings):
            if emb.image == image:
                return i
        raise FieldMismatch("group does not permute the embeddings")

    for w_idx, omega_auto in enumerate(group.elements):
        for tau in range(d):
            for sigma in range(d):
                w_tau = embedding_index(omega_auto(embeddings[tau].image))
                w_sigma = embedding_index(omega_auto(embeddings[sigma].image))
                conjugated = {name: p.map_coeffs(omega_auto)
                              for name, p in images_of(tau, sigma).items()}
                direct = images_of(w_tau, w_sigma)
                for name in V.variables:
                    diff = conjugated[name] - direct[name]
                    if not conjugates[w_sigma].relations.contains(diff, budget):
                        raise ConditionBViolated(sigma, tau, omega_auto.name)

    # assemble the induced datum on the first conjugate:
    # theta_omega = (pullback of the map from conjugate 0 to conjugate
    # omega.0) composed with omega-conjugation of coefficients
    maps = []
    for omega_auto in group.elements:
        target = embedding_index(omega_auto(embeddings[0].image))
        maps.append(SemilinearAlgebraMap(omega_auto, images_of(target, 0)))
    datum = AffineDescentDatum(conjugates[0], group, maps)
    return descend_algebra(datum, budget)


class PointAction:
    """The action on extension points of a finite-field datum: the points,
    kept as tuples of element indices into ``tables`` and decoded to field
    elements only when read, and one permutation (as an index list) per
    group element."""

    __slots__ = ("hits", "tables", "permutations", "_points")

    def __init__(self, hits, tables, permutations):
        self.hits = hits
        self.tables = tables
        self.permutations = permutations
        self._points = None

    @property
    def points(self):
        """Every point, as a tuple of field elements, decoded once."""
        if self._points is None:
            self._points = [self.tables.decode(p) for p in self.hits]
        return self._points

    def fixed_points(self):
        """Points fixed by every group element; only these are decoded."""
        return [self.tables.decode(p) for k, p in enumerate(self.hits)
                if all(perm[k] == k for perm in self.permutations)]


def derive_point_action(datum, budget=None):
    """Enumerate the extension points and tabulate sigma * P; verified to be
    a group action."""
    algebra = datum.algebra
    ext = algebra.field
    group = datum.group
    hits, tables = solutions(list(algebra.relations.generators), ext,
                             len(algebra.variables), budget)
    index = {p: i for i, p in enumerate(hits)}
    # columns[i] lists variable i's index at each point; zip makes no
    # column when there are no points
    columns = list(zip(*hits)) or [()] * len(algebra.variables)
    permutations = []
    for idx in range(group.order):
        sigma = tables.permutation(group.elements[idx])
        inverse = datum.maps[group.inverse[idx]].images
        images = [[sigma[v] for v in tables.evaluate(inverse[name], columns, len(hits))]
                  for name in algebra.variables]
        # with no variables each point is its own (empty) image
        perm = list(map(index.get, zip(*images) if images else hits))
        if None in perm:
            raise InternalContradiction("action image escaped the point set; datum invalid")
        permutations.append(perm)
    # group-action law on the table, at every pair and every point
    for i, perm_i in enumerate(permutations):
        for j, perm_j in enumerate(permutations):
            if [perm_i[x] for x in perm_j] != permutations[group.compose(i, j)]:
                raise InternalContradiction("point action violates the group law")
    return PointAction(hits, tables, permutations)
