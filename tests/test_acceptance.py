"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import pathlib
import random

import pytest

from galdescent.affine import (
    AffineAlgebra,
    AffineDescentDatum,
    SemilinearAlgebraMap,
    canonical_datum,
    descend_algebra,
    descend_ideal,
    splits,
)
from galdescent.enumeration import count_affine_points
from galdescent.errors import (
    Budget,
    CocycleFailed,
    NotBilinearCompatible,
    NotExact,
    NotStable,
    SingularMatrix,
)
from galdescent.extension import finite_field, make_extension
from galdescent.fields import GF, QQ
from galdescent.flat import (
    AlgebraMap,
    AmitsurComplex,
    FiniteAlgebra,
    FreeModuleData,
    amitsur_complex,
    canonical_datum_matrix,
    check_cocycle,
    check_exactness,
    reconstruct_module,
    twist_datum,
)
from galdescent.galois import cyclotomic_group, dedekind_check, frobenius_group
from galdescent.groebner import Ideal, ideal_equal
from galdescent.linalg import Matrix, span_contains
from galdescent.multipoly import MultiPolynomial
from galdescent.semilinear import (
    KSpace,
    SemilinearModule,
    counit_check,
    descend_subspace,
    fixed_subspace,
    validate_action,
)
from galdescent.unipoly import UniPoly
from galdescent.weil import SeparableExtensionData, conjugate_product_check, weil_restrict
from algebra_reference import VectorAlgebra
from helpers import coboundary_module


def report(number, title):
    print(f"ACCEPTANCE {number:2d} ({title}): PASS")


def random_invertible(rng, field, n, elems):
    while True:
        m = Matrix(field, [[rng.choice(elems) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def gm_algebra(field):
    x, y = MultiPolynomial.ring_vars(field, ("x", "y"))
    return AffineAlgebra(field, ("x", "y"),
                         Ideal(field, ("x", "y"), [x * y - 1]))


def swap_datum(ext, group, algebra=None):
    algebra = algebra or gm_algebra(ext)
    x, y = algebra.vars()
    maps = []
    for idx, sigma in enumerate(group.elements):
        if idx == group.identity_index:
            maps.append(SemilinearAlgebraMap(sigma, {"x": x, "y": y}))
        else:
            maps.append(SemilinearAlgebraMap(sigma, {"x": y, "y": x}))
    return AffineDescentDatum(algebra, group, maps)


def test_criterion_01_speiser():
    """Fixed-space dimension equals module dimension and the counit matrix is
    invertible on >= 100 boundary cocycles."""
    rng = random.Random(2024)
    cases = 0
    for p in (3, 5, 7):
        for degree in (2, 3):
            ext = finite_field(p, degree)
            group = frobenius_group(ext)
            elems = list(ext.elements())
            for n in (1, 2, 3, 4):
                for _ in range(4):
                    b = random_invertible(rng, ext, n, elems)
                    module = coboundary_module(group, b)
                    validate_action(module)
                    assert fixed_subspace(module).dim == n
                    assert counit_check(module).is_invertible()
                    cases += 1
    rational = [(cyclotomic_group(4), (1, 2, 3, 4), 2),
                (cyclotomic_group(5), (1, 2, 3, 4), 1)]
    for (ext, group), dims, reps in rational:
        elems = ([ext.from_int(k) for k in (-2, -1, 0, 1, 2)]
                 + [ext.generator, ext.generator + 1])
        for n in dims:
            for _ in range(reps):
                b = random_invertible(rng, ext, n, elems)
                module = coboundary_module(group, b)
                validate_action(module)
                assert fixed_subspace(module).dim == n
                assert counit_check(module).is_invertible()
                cases += 1
    assert cases >= 100
    report(1, f"Speiser fixed-space suite, {cases} random modules")


def test_criterion_02_dedekind():
    """The twisted group algebra maps onto the full endomorphism ring: rank
    n^2 for every built-in extension of degree <= 6."""
    checked = 0
    for p in (2, 3, 5):
        for n in range(1, 7):
            group = frobenius_group(finite_field(p, n))
            assert dedekind_check(group).rank == n * n
            checked += 1
    for m in (3, 4, 5, 7, 8, 9):
        _, group = cyclotomic_group(m)
        n = group.ext.degree
        assert n <= 6
        assert dedekind_check(group).rank == n * n
        checked += 1
    report(2, f"Dedekind rank identity on {checked} extensions")


def _conic_twist_datum(ext, group):
    names = ("x", "y")
    x, y = MultiPolynomial.ring_vars(ext, names)
    conic = AffineAlgebra(ext, names,
                          Ideal(ext, names, [x * x + y * y - 1]))
    maps = []
    for idx, sigma in enumerate(group.elements):
        if idx == group.identity_index:
            maps.append(SemilinearAlgebraMap(sigma, {"x": x, "y": y}))
        else:
            maps.append(SemilinearAlgebraMap(sigma, {"x": x, "y": -y}))
    return AffineDescentDatum(conic, group, maps)


def test_criterion_03_affine_round_trip():
    """descend_algebra succeeds, the model splits its datum, and the splitting
    transports the model relations exactly onto the original ideal."""
    corpus = []
    qi, qi_group = cyclotomic_group(4)
    line_q = AffineAlgebra(QQ, ("x",))
    corpus.append(canonical_datum(line_q, qi_group))
    corpus.append(canonical_datum(gm_algebra(QQ), qi_group))
    corpus.append(canonical_datum(AffineAlgebra(QQ, ()), qi_group))
    corpus.append(swap_datum(qi, qi_group))
    corpus.append(_conic_twist_datum(qi, qi_group))
    for q in (3, 5, 7):
        ext = finite_field(q, 2)
        group = frobenius_group(ext)
        corpus.append(swap_datum(ext, group))
        corpus.append(canonical_datum(gm_algebra(GF(q)), group))
    assert len(corpus) >= 10
    for datum in corpus:
        model = descend_algebra(datum)
        assert splits(model, datum)
        ext = datum.algebra.field
        transported = [
            g.map_coeffs(ext.from_base, ext).substitute(
                {name: model.splitting[name]
                 for name in model.algebra0.variables})
            for g in model.algebra0.relations.generators]
        lhs = Ideal(ext, datum.algebra.variables, transported)
        assert ideal_equal(lhs, datum.algebra.relations)
    report(3, f"affine descent round trip on {len(corpus)} data")


def test_criterion_04_torus_point_counts():
    """The swap twist of the multiplicative group has q + 1 rational points;
    the split form has q - 1."""
    for q in (3, 5, 7):
        ext = finite_field(q, 2)
        group = frobenius_group(ext)
        model = descend_algebra(swap_datum(ext, group))
        twisted = count_affine_points(
            list(model.algebra0.relations.generators), GF(q),
            len(model.algebra0.variables))
        assert twisted == q + 1
        split = count_affine_points(
            list(gm_algebra(GF(q)).relations.generators), GF(q), 2)
        assert split == q - 1
    report(4, "norm-one torus q+1 vs split torus q-1 for q in {3, 5, 7}")


def test_criterion_05_weil_point_identity():
    """#restriction(F_q) = #source(F_{q^d}) for the corpus, plus the
    conjugate-product identity over the splitting field."""
    checked = 0
    for q, d in ((2, 2), (3, 2), (2, 3), (5, 2)):
        K = finite_field(q, d)
        data = SeparableExtensionData.discover(K, K, frobenius_group(K))
        x, y = MultiPolynomial.ring_vars(K, ("x", "y"))
        curve = AffineAlgebra(K, ("x", "y"),
                              Ideal(K, ("x", "y"), [y * y - x ** 3 - 1]))
        for V in (AffineAlgebra(K, ("x",)), gm_algebra(K), curve):
            result = weil_restrict(V)
            restricted = count_affine_points(
                list(result.restricted.relations.generators), GF(q),
                len(result.restricted.variables))
            source = count_affine_points(
                list(V.relations.generators), K, len(V.variables))
            assert restricted == source
            product = conjugate_product_check(result, data, budget=Budget(points=5_000_000))
            assert product.restricted_count == product.conjugate_counts[0] ** d
            checked += 1
    report(5, f"Weil restriction point identities on {checked} schemes")


AMITSUR_TARGETS = None


def _amitsur_targets():
    global AMITSUR_TARGETS
    if AMITSUR_TARGETS is None:
        base_q = FiniteAlgebra.base(QQ)
        base_f2 = FiniteAlgebra.base(GF(2))
        qi = make_extension(QQ, UniPoly.from_ints(QQ, [1, 0, 1]), irreducible=True)
        AMITSUR_TARGETS = [
            ("Q -> Q x Q", FiniteAlgebra.product([base_q, base_q])),
            ("Q -> Q(i)", FiniteAlgebra.from_extension(qi)),
            ("F3 -> GF(9)", FiniteAlgebra.from_extension(finite_field(3, 2))),
            ("F2 -> F2^3", FiniteAlgebra.product([base_f2, base_f2, base_f2])),
        ]
    return AMITSUR_TARGETS


def test_criterion_06_amitsur_exactness():
    """Exactness through degree 3 with coefficient modules of dimension 1 and
    3; a corrupted differential is detected."""
    for label, B in _amitsur_targets():
        f = AlgebraMap.base_inclusion(B)
        for t in (1, 3):
            complex_ = amitsur_complex(f, 3, coefficient_dim=t)
            exactness = check_exactness(complex_)
            assert len(exactness.degrees) == 3
            assert exactness.degrees[0][1] == t
    # corruption: flip one entry's sign in d^1
    B = _amitsur_targets()[0][1]
    f = AlgebraMap.base_inclusion(B)
    complex_ = amitsur_complex(f, 3)
    d1 = complex_.differentials[1]
    rows = [list(r) for r in d1.rows]
    r, c = next((r, c) for r in range(d1.nrows) for c in range(d1.ncols)
                if rows[r][c])
    rows[r][c] = -rows[r][c]
    corrupted = AmitsurComplex(f, complex_.flatness, 1, complex_.first,
                               [complex_.differentials[0], Matrix(QQ, rows),
                                complex_.differentials[2]])
    with pytest.raises(NotExact):
        check_exactness(corrupted)
    report(6, "Amitsur exactness through degree 3 on 4 maps x 2 modules")


def test_criterion_07_module_descent():
    """>= 20 twisted data pass the cocycle check and reconstruct with an exact
    isomorphism; a 10-case single-entry corruption set is rejected."""
    rng = random.Random(77)
    reconstructed = 0
    for label, B in _amitsur_targets():
        field = B.field
        elems = ([field.from_int(n) for n in range(-2, 3)]
                 if not field.is_finite else list(field.elements()))
        for rank in (1, 2):
            built = 0
            while built < 3:
                u = [[tuple(rng.choice(elems) for _ in range(B.dim))
                      for _ in range(rank)] for _ in range(rank)]
                phi = canonical_datum_matrix(B, rank)
                try:
                    data = twist_datum(B, rank, phi, u)
                except SingularMatrix:
                    continue  # random u not invertible
                check_cocycle(data)
                module = reconstruct_module(data)
                assert module.dim == rank
                built += 1
                reconstructed += 1
    assert reconstructed >= 20

    qi_algebra = _amitsur_targets()[1][1]
    phi = canonical_datum_matrix(qi_algebra, 1)
    rejected = 0
    corruptions = 0
    for r in range(4):
        for c in range(4):
            if corruptions >= 10:
                break
            rows = [list(row) for row in phi.rows]
            rows[r][c] = rows[r][c] + QQ.one
            corruptions += 1
            with pytest.raises((NotBilinearCompatible, CocycleFailed)):
                check_cocycle(FreeModuleData(qi_algebra, 1, Matrix(QQ, rows)))
            rejected += 1
    assert rejected == corruptions == 10
    report(7, f"module descent on {reconstructed} data, 10 corruptions rejected")


def test_criterion_08_subspace_ideal_descent():
    """Stable inputs descend exactly; the eigenline of the imaginary unit is
    rejected and its orbit product descends."""
    qi, group = cyclotomic_group(4)
    i = qi.generator

    # vector-space side
    V0 = KSpace(QQ, 2)
    with pytest.raises(NotStable):
        descend_subspace(V0, [(qi.one, i)], group)
    stable = [(qi.one + i, qi.one - i), (qi.one - i, qi.one + i)]
    result = descend_subspace(V0, stable, group)
    assert result.dim == 2
    for vec in result.embedding:
        assert span_contains(qi, stable, vec)

    # ideal side
    plane = AffineAlgebra(QQ, ("x", "y"))
    x, y = MultiPolynomial.ring_vars(qi, ("x", "y"))
    xq, yq = MultiPolynomial.ring_vars(QQ, ("x", "y"))
    i_const = MultiPolynomial.constant(qi, ("x", "y"), i)
    with pytest.raises(NotStable):
        descend_ideal(plane, group, Ideal(qi, ("x", "y"), [y - i_const * x]))
    descended = descend_ideal(plane, group,
                              Ideal(qi, ("x", "y"), [x * x + y * y]))
    assert ideal_equal(descended, Ideal(QQ, ("x", "y"), [xq ** 2 + yq ** 2]))
    # exact extension round trip for a stable input built over the base
    base_ideal = Ideal(qi, ("x", "y"), [(x - y) * (x + y), x * y * y])
    back = descend_ideal(plane, group, base_ideal)
    extended = Ideal(qi, ("x", "y"),
                     [g.map_coeffs(qi.from_base, qi) for g in back.generators])
    assert ideal_equal(extended, base_ideal)
    report(8, "subspace and ideal descent with stability rejection")


def test_criterion_09_galois_flat_consistency():
    """The twisted rank-1 flat datum over Q -> Q(i) and the matching
    semilinear module cut out the same line."""
    from galdescent.weil import etale_splitting

    ext, group = cyclotomic_group(4)
    i = ext.generator
    data = SeparableExtensionData.discover(ext, ext, group)
    idempotents = etale_splitting(data)
    B = FiniteAlgebra.from_extension(ext)
    T = VectorAlgebra.tensor(B, B)
    w = T.zero_vector()
    for e_vec, emb in zip(idempotents, data.embeddings):
        sigma = next(s for s in group.elements if s.image == emb.image)
        c_sigma = ext.one if sigma.is_identity() else i
        w = T.add(w, T.mul(e_vec, T.embed_right(ext.coords(c_sigma))))
    flat_data = FreeModuleData(B, 1, T.mult_matrix(w))
    check_cocycle(flat_data)
    module = reconstruct_module(flat_data)

    semi = SemilinearModule(group, 1,
                            [Matrix.identity(ext, 1), Matrix(ext, [[i]])])
    space = fixed_subspace(semi)
    assert module.dim == space.dim == 1
    (fixed_vec,) = space.embedding
    reconstructed_elem = ext.from_coords(module.basis[0])
    assert span_contains(ext, [fixed_vec], (reconstructed_elem,))
    report(9, "Galois descent agrees with flat descent on Q(i)")


def test_criterion_10_cli_golden():
    """Every document reproduces its golden report byte for byte, twice, and
    re-validates after a round trip through the emitted declarations."""
    from galdescent.cli import run
    from galdescent.parser import parse

    here = pathlib.Path(__file__).parent
    oracle = {"descend_canonical_line", "descend_swap_f9", "restrict_gm_f4",
              "fixed_f9_swap", "restrict_sqrt_i"}
    documents = sorted((here / "documents").glob("*.txt"))
    assert len(documents) >= 8
    for doc in documents:
        text = doc.read_text()
        golden = (here / "golden" / f"{doc.stem}.golden").read_text()
        for _ in range(2):
            report_text, diagnostics, code = run(parse(text),
                                                 oracle=doc.stem in oracle)
            assert code == 0 and not diagnostics
            assert report_text == golden
        decls = [line[len("decl: "):] for line in golden.splitlines()
                 if line.startswith("decl: ")]
        if decls:
            target = decls[-1].split()[1]
            _, diagnostics, code = run(parse("\n".join(decls + [f"validate {target}"])))
            assert code == 0
    report(10, f"CLI golden suite on {len(documents)} documents")
