"""Automorphism groups of simple extensions.

An automorphism is stored by the image of the field generator; composition is
polynomial substitution.  Two built-in families (Frobenius groups of finite
fields, cyclotomic fields over Q) cover the Galois extensions the library
constructs itself.  They are verified on generators only: every other element
is a composite of a generator with an element already built, so it is an
automorphism by construction, and each composite must land on the label the
family's law predicts.  Arbitrary automorphism lists can be supplied; every
listed map and every composite is verified, since closure is what can fail.
"""

from math import gcd

from .errors import (
    FieldMismatch,
    InvalidFieldParameter,
    NotARoot,
    NotClosed,
    NotFiniteBase,
    NotInvertible,
    RankDeficient,
)
from .extension import ExtensionField, make_extension
from .fields import QQ
from .linalg import Matrix, fixed_space_basis
from .unipoly import cyclotomic


class GeneratorMap:
    """A base-field homomorphism out of a simple extension, determined by the
    image of the generator: sum a_j t^j goes to sum a_j image^j."""

    __slots__ = ("source", "target", "image", "name", "_powers")

    def __init__(self, source, target, image, name):
        self.source = source
        self.target = target
        self.image = image
        self.name = name
        self._powers = [target.one]

    def _power(self, j):
        """image^j, with the powers below it built on first use."""
        powers = self._powers
        while len(powers) <= j:
            powers.append(powers[-1] * self.image)
        return powers[j]

    def __call__(self, a):
        if a.field is not self.source and a.field != self.source:
            raise FieldMismatch("element not in the map's source field")
        return self.target.combine(a, self._power)


class Automorphism(GeneratorMap):
    """A base-field automorphism of an extension, determined by the image of
    the generator."""

    __slots__ = ()

    def __init__(self, ext, image, name):
        super().__init__(ext, ext, image, name)

    @property
    def ext(self):
        return self.source

    def matrix(self):
        """Base-field matrix acting on generator-power coordinates."""
        return self.ext.coords_matrix([self._power(j) for j in range(self.ext.degree)])

    def is_identity(self):
        return self.image == self.ext.generator

    def __eq__(self, other):
        return (isinstance(other, Automorphism) and other.ext == self.ext
                and other.image == self.image)

    def __hash__(self):
        return hash((self.ext, self.image))

    def __repr__(self):
        return f"{self.name}: t -> {self.ext.format_element(self.image)}"


def verify_automorphism(ext, image, name="sigma"):
    """Check that ``image`` is a root of the modulus and that substitution
    induces an invertible base-linear map, then package the automorphism."""
    value = ext.modulus.evaluate(image)
    if value:
        raise NotARoot(
            f"f({ext.format_element(image)}) = {ext.format_element(value)} != 0")
    auto = Automorphism(ext, image, name)
    if not auto.matrix().is_invertible():
        raise NotInvertible(f"substitution t -> {ext.format_element(image)} is singular")
    return auto


class GaloisGroup:
    """A finite, composition-closed list of automorphisms with its table.

    Groups of order equal to the extension degree are full (honest Galois
    groups); proper subgroups reuse the same machinery for fixed-field
    computations.
    """

    def __init__(self, ext, elements, table, generator_indices):
        self.ext = ext
        self.elements = elements
        self.table = table
        self.generator_indices = generator_indices
        self.identity_index = next(
            i for i, s in enumerate(elements) if s.is_identity())
        self.inverse = [row.index(self.identity_index) for row in table]

    @property
    def order(self):
        return len(self.elements)

    @property
    def is_full(self):
        return self.order == self.ext.degree

    def compose(self, i, j):
        """Index of elements[i] o elements[j]."""
        return self.table[i][j]

    @classmethod
    def close_and_verify(cls, ext, autos):
        """Build the composition table of a supplied automorphism list.  The
        list must already be closed (including the identity); anything else is
        an error, never silently completed."""
        images = {a.image: i for i, a in enumerate(autos)}
        if len(images) != len(autos):
            raise NotClosed("duplicate automorphisms in the list")
        if not any(a.is_identity() for a in autos):
            raise NotClosed("identity automorphism missing from the list")
        table = []
        for a in autos:
            row = []
            for b in autos:
                composite = a(b.image)
                k = images.get(composite)
                if k is None:
                    raise NotClosed(
                        f"composite {a.name} o {b.name} (t -> "
                        f"{ext.format_element(composite)}) is not in the list")
                row.append(k)
            table.append(tuple(row))
        generator_indices = tuple(
            i for i, a in enumerate(autos) if not a.is_identity()) or (0,)
        return cls(ext, list(autos), table, generator_indices)

    def subgroup(self, indices):
        """The subgroup generated by the listed element indices, with the
        parent's table restricted to it."""
        chosen = set(indices) | {self.identity_index}
        changed = True
        while changed:
            changed = False
            for i in list(chosen):
                for j in list(chosen):
                    k = self.table[i][j]
                    if k not in chosen:
                        chosen.add(k)
                        changed = True
        order = sorted(chosen)
        position = {i: k for k, i in enumerate(order)}
        table = [tuple(position[self.table[i][j]] for j in order) for i in order]
        gens = tuple(position[i] for i in indices)
        return GaloisGroup(self.ext, [self.elements[i] for i in order], table,
                           gens or (0,))

    def __repr__(self):
        return f"GaloisGroup({self.ext!r}, order {self.order})"


def _generated_group(ext, labels, law, name_of, image_of):
    """The group of a built-in family, verified on generators only.

    ``labels`` lists the elements in report order, identity first, and
    ``law(a, b)`` is the label of a o b under the family's group law.  Each label not yet reached becomes
    a generator (verified, with image ``image_of(label)``); every other
    element is a composite g o e of a generator g with an element e already
    built.  A composite whose image is already known must carry the label the
    law predicts, so the table can be read off the labels."""
    one = labels[0]
    built = {one: Automorphism(ext, ext.generator, name_of(one))}
    label_of = {ext.generator: one}
    gens = {}
    for label in labels:
        if label in built:
            continue
        gens[label] = verify_automorphism(ext, image_of(label), name_of(label))
        work = [(label, e) for e in built]
        while work:
            g, e = work.pop()
            image = gens[g](built[e].image)
            k = law(g, e)
            known = label_of.get(image)
            if known is None and k not in built:
                built[k] = Automorphism(ext, image, name_of(k))
                label_of[image] = k
                work.extend((h, k) for h in gens)
            elif known != k:
                raise NotClosed(
                    f"composite {name_of(g)} o {name_of(e)} (t -> "
                    f"{ext.format_element(image)}) is not {name_of(k)}")
    if len(built) != ext.degree:
        raise NotClosed(f"group order {len(built)} != extension degree {ext.degree}")
    position = {label: i for i, label in enumerate(labels)}
    table = [tuple(position[law(a, b)] for b in labels) for a in labels]
    return GaloisGroup(ext, [built[label] for label in labels], table,
                       tuple(position[g] for g in gens) or (0,))


def frobenius_group(ext):
    """The cyclic group generated by x -> x^p for a finite-field extension."""
    if not isinstance(ext, ExtensionField) or not ext.base.is_finite:
        raise NotFiniteBase("Frobenius group needs a finite base field")
    p = ext.characteristic
    n = ext.degree
    return _generated_group(
        ext, range(n), lambda i, j: (i + j) % n,
        lambda i: "id" if i == 0 else ("frob" if i == 1 else f"frob{i}"),
        lambda i: ext.generator ** (p ** i))


def cyclotomic_field(m):
    """Q(zeta_m) presented by the m-th cyclotomic polynomial."""
    if m < 3:
        raise InvalidFieldParameter("need m >= 3")
    return make_extension(QQ, cyclotomic(m), irreducible=True)


def cyclotomic_group(m):
    """Q(zeta_m) together with its automorphisms x -> x^a, gcd(a, m) = 1."""
    ext = cyclotomic_field(m)
    units = [a for a in range(1, m) if gcd(a, m) == 1]
    group = _generated_group(
        ext, units, lambda a, b: a * b % m,
        lambda a: "id" if a == 1 else f"s{a}",
        lambda a: ext.generator ** a)
    return ext, group


def check_fixed_field(group):
    """Base-field basis of the fixed subfield of the group, as field elements:
    an element is fixed by the group exactly when every generator fixes it."""
    ext = group.ext
    moving = [group.elements[i].matrix() for i in group.generator_indices]
    return [ext.from_coords(v) for v in fixed_space_basis(ext.base, ext.degree, moving)]


class TwistedGroupAlgebraMap:
    """The k-linear map from the twisted group algebra of the extension to
    its k-endomorphism ring, with its matrix and rank."""

    __slots__ = ("group", "matrix", "rank")

    def __init__(self, group, matrix, rank):
        self.group = group
        self.matrix = matrix
        self.rank = rank


def dedekind_check(group):
    """Build the map sending sum a_sigma sigma to the endomorphism
    c -> sum a_sigma sigma(c) and assert it has full rank n^2."""
    ext = group.ext
    base = ext.base
    n = ext.degree
    if not group.is_full:
        raise RankDeficient("need the full automorphism group")
    cols = []
    for sigma in group.elements:
        sigma_matrix = sigma.matrix()
        for b in ext.power_basis():
            # endomorphism c -> b * sigma(c), flattened column-major by input
            endo = (ext.mult_matrix(b) * sigma_matrix).rows
            cols.append([endo[r][c] for c in range(n) for r in range(n)])
    matrix = Matrix.from_cols(base, cols)
    rank = matrix.rank()
    if rank != n * n:
        raise RankDeficient(f"rank {rank} < {n * n}")
    return TwistedGroupAlgebraMap(group, matrix, rank)
