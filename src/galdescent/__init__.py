"""galdescent: exact Galois descent, Weil restriction and flat descent for
affine schemes and modules over Q and finite fields."""

from .fields import GF, QQ, FieldElement
from .extension import ExtensionField, finite_field, make_extension
from .unipoly import UniPoly, cyclotomic, default_modulus
from .linalg import Matrix, restrict_scalars_matrix, solve_linear
from .galois import (
    Automorphism,
    GaloisGroup,
    check_fixed_field,
    cyclotomic_field,
    cyclotomic_group,
    dedekind_check,
    frobenius_group,
    verify_automorphism,
)
from .multipoly import GREVLEX, LEX, MonomialOrder, MultiPolynomial, block_order
from .groebner import Ideal, apply_semilinear, buchberger, eliminate, ideal_equal, normal_form
from .semilinear import (
    KSpace,
    SemilinearModule,
    counit_check,
    descend_subspace,
    extend_scalars,
    fixed_subspace,
    validate_action,
)
from .affine import (
    AffineAlgebra,
    AffineDescentDatum,
    Embedding,
    Model,
    SemilinearAlgebraMap,
    canonical_datum,
    derive_point_action,
    descend_algebra,
    descend_from_embeddings,
    descend_ideal,
    descend_morphism,
    embeddings_into,
    splits,
    validate_datum,
)
from .weil import (
    RestrictionResult,
    SeparableExtensionData,
    certify_restriction,
    conjugate_product_check,
    etale_splitting,
    weil_restrict,
)
from .flat import (
    AlgebraMap,
    AmitsurComplex,
    FiniteAlgebra,
    FreeModuleData,
    amitsur_complex,
    check_cocycle,
    check_exactness,
    check_faithfully_flat,
    reconstruct_module,
)
