"""Command-line front end: builds library objects from a parsed document,
dispatches the command, and renders a deterministic report.

Exit codes: 0 success, 1 validation failure, 2 parse/resolution error,
3 budget exceeded.
"""

import argparse
import functools
import operator
import sys
from fractions import Fraction

from .affine import (
    AffineAlgebra,
    AffineDescentDatum,
    SemilinearAlgebraMap,
    derive_point_action,
    descend_algebra,
    validate_datum,
)
from .enumeration import count_affine_points, count_fixed_vectors
from .errors import Budget, BudgetExceeded, GaldescentError
from .extension import ExtensionField, finite_field, make_extension
from .fields import GF, QQ, PrimeField, RationalField
from .flat import AlgebraMap, FiniteAlgebra, amitsur_complex, check_exactness, check_faithfully_flat
from .galois import (
    GaloisGroup,
    cyclotomic_group,
    frobenius_group,
    verify_automorphism,
)
from .groebner import Ideal
from .linalg import Matrix
from .multipoly import MultiPolynomial
from .parser import Diagnostic, ParseError, parse
from .semilinear import SemilinearModule, counit_check, validate_action
from .unipoly import UniPoly
from .weil import (
    SeparableExtensionData,
    conjugate_product_check,
    etale_splitting,
    weil_restrict,
)


class CommandFailure(Exception):
    def __init__(self, diagnostic, exit_code):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic
        self.exit_code = exit_code


def _code_for(error):
    name = type(error).__name__
    out = []
    for i, ch in enumerate(name):
        if ch.isupper() and i > 0:
            out.append("-")
        out.append(ch.lower())
    return "".join(out)


def _fail_validation(statement, error):
    exit_code = 3 if isinstance(error, BudgetExceeded) else 1
    raise CommandFailure(
        Diagnostic("error", statement.line, statement.col, str(error),
                   _code_for(error)),
        exit_code)


def _fail_resolution(line, col, message):
    raise CommandFailure(Diagnostic("error", line, col, message, "unresolved"), 2)


# -- expression materialization -------------------------------------------------

_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def eval_poly(ast, field, variables):
    kind = ast[0]
    if kind == "int":
        return MultiPolynomial.constant(field, variables, ast[1])
    if kind == "frac":
        return MultiPolynomial.constant(
            field, variables, field.from_int(Fraction(ast[1], ast[2])))
    if kind == "sym":
        name = ast[1]
        if name in variables:
            return MultiPolynomial.variable(field, variables, name)
        if name == "t" and isinstance(field, ExtensionField):
            return MultiPolynomial.constant(field, variables, field.generator)
        _fail_resolution(ast[2], ast[3], f"unknown symbol {name!r} in polynomial")
    if kind in _BINARY:
        return _BINARY[kind](eval_poly(ast[1], field, variables),
                             eval_poly(ast[2], field, variables))
    if kind == "neg":
        return -eval_poly(ast[1], field, variables)
    if kind == "pow":
        return eval_poly(ast[1], field, variables) ** ast[2]
    raise AssertionError(f"unhandled expression node {kind}")


def eval_unipoly(ast, base):
    poly = eval_poly(ast, base, ("t",))
    degree = poly.total_degree()
    coeffs = [base.zero] * (degree + 1)
    for exps, coeff in poly.terms.items():
        coeffs[exps[0]] = coeff
    return UniPoly(base, coeffs)


def eval_element(ast, field):
    poly = eval_poly(ast, field, ())
    return poly.coefficient_of(())


# -- workspace -------------------------------------------------------------------

class Workspace:
    def __init__(self, budget):
        self.budget = budget
        self.fields = {}        # name -> field object
        self.field_groups = {}  # name -> GaloisGroup or None
        self.groups = {}
        self.algebras = {}
        self.data = {}
        self.modules = {}
        self.maps = {}
        self.field_names = {}   # id(field) -> declared name

    def build(self, statement):
        try:
            getattr(self, f"_build_{statement.kind}")(statement)
        except GaldescentError as error:
            _fail_validation(statement, error)

    def _register_field(self, name, field, group):
        self.fields[name] = field
        self.field_groups[name] = group
        self.field_names.setdefault(id(field), name)

    def _build_field(self, statement):
        payload = statement.payload
        ctor = payload["ctor"]
        if ctor == "QQ":
            self._register_field(statement.name, QQ, None)
            return
        if ctor == "GF":
            p, n = payload["p"], payload["n"]
            modulus = None
            if payload["modulus"] is not None:
                modulus = eval_unipoly(payload["modulus"], GF(p))
            if n == 1:
                if modulus is not None:
                    # validated only: the field stays GF(p)
                    finite_field(p, 1, modulus)
                self._register_field(statement.name, GF(p), None)
                return
            field = finite_field(p, n, modulus)
            group = frobenius_group(field)
            self._register_field(statement.name, field, group)
            return
        if ctor == "Cyclo":
            field, group = cyclotomic_group(payload["m"])
            self._register_field(statement.name, field, group)
            return
        modulus = eval_unipoly(payload["modulus"], QQ)
        field = make_extension(QQ, modulus, irreducible=payload["irreducible"])
        self._register_field(statement.name, field, None)

    def _build_group(self, statement):
        payload = statement.payload
        if payload["ctor"] == "Aut":
            ext = self.fields[payload["ext"]]
            base = self.fields[payload["base"]]
            if not isinstance(ext, ExtensionField) or ext.base != base:
                _fail_resolution(statement.line, statement.col,
                                 f"{payload['ext']} is not an extension of {payload['base']}")
            group = self.field_groups.get(payload["ext"])
            if group is None:
                _fail_resolution(
                    statement.line, statement.col,
                    "no built-in automorphism family for this field; declare "
                    "an explicit automorphism list")
            self.groups[statement.name] = group
            return
        ext = self.fields[payload["ext"]]
        if not isinstance(ext, ExtensionField):
            _fail_resolution(statement.line, statement.col,
                             "explicit groups need an extension field")
        autos = []
        for i, ast in enumerate(payload["images"]):
            image = eval_element(ast, ext)
            name = "id" if image == ext.generator else f"a{i}"
            autos.append(verify_automorphism(ext, image, name))
        group = GaloisGroup.close_and_verify(ext, autos)
        self.groups[statement.name] = group
        if group.is_full and self.field_groups.get(payload["ext"]) is None:
            self.field_groups[payload["ext"]] = group

    def _build_algebra(self, statement):
        payload = statement.payload
        field = self.fields[payload["field"]]
        variables = payload["variables"]
        gens = [eval_poly(ast, field, variables) for ast in payload["relations"]]
        self.algebras[statement.name] = AffineAlgebra(
            field, variables, Ideal(field, variables, gens))

    def _group_for_field(self, field, statement):
        for name in reversed(list(self.groups)):
            group = self.groups[name]
            if group.ext == field and group.is_full:
                return group
        field_name = self.field_names.get(id(field))
        group = self.field_groups.get(field_name)
        if group is None:
            _fail_resolution(statement.line, statement.col,
                             "no full automorphism group known for the "
                             "algebra's field; declare one")
        return group

    def _per_element(self, statement, group, resolve, identity, what):
        """One value per element of ``group``, in its order: ``resolve`` of
        the block labelled with the element's name, or ``identity()`` for an
        unlabelled identity.  Every block is resolved, in document order,
        before any label is matched."""
        blocks = statement.payload["blocks"]
        resolved = {block["label"]: resolve(block) for block in blocks}
        values = []
        for idx, sigma in enumerate(group.elements):
            if sigma.name in resolved:
                values.append(resolved.pop(sigma.name))
            elif idx == group.identity_index:
                values.append(identity())
            else:
                _fail_resolution(statement.line, statement.col,
                                 f"{statement.kind} misses {what} for group "
                                 f"element {sigma.name!r}")
        for block in blocks:
            if block["label"] in resolved:
                _fail_resolution(block["line"], block["col"],
                                 f"{block['label']!r} is not a group element "
                                 f"(elements: {', '.join(s.name for s in group.elements)})")
        return values

    def _build_datum(self, statement):
        algebra = self.algebras[statement.payload["algebra"]]
        if not isinstance(algebra.field, ExtensionField):
            _fail_resolution(statement.line, statement.col,
                             "descent data need an algebra over an extension field")
        group = self._group_for_field(algebra.field, statement)

        def images_of(block):
            images = {}
            for var, line, col, ast in block["body"]:
                if var not in algebra.variables:
                    _fail_resolution(line, col,
                                     f"{var!r} is not a variable of the algebra")
                images[var] = eval_poly(ast, algebra.field, algebra.variables)
            missing = [v for v in algebra.variables if v not in images]
            if missing:
                _fail_resolution(block["line"], block["col"],
                                 f"block {block['label']!r} misses images for "
                                 f"{', '.join(missing)}")
            return images

        images = self._per_element(
            statement, group, images_of,
            lambda: dict(zip(algebra.variables, algebra.vars())), "a block")
        maps = [SemilinearAlgebraMap(sigma, sigma_images)
                for sigma, sigma_images in zip(group.elements, images)]
        self.data[statement.name] = AffineDescentDatum(algebra, group, maps)

    def _build_module(self, statement):
        group = self.groups[statement.payload["group"]]
        dim = statement.payload["dim"]
        ext = group.ext

        def matrix_of(block):
            rows = block["body"]
            if len(rows) != dim or any(len(r) != dim for r in rows):
                _fail_resolution(block["line"], block["col"],
                                 f"matrix for {block['label']!r} is not {dim}x{dim}")
            return Matrix(ext, [[eval_element(ast, ext) for ast in row] for row in rows])

        cocycle = self._per_element(statement, group, matrix_of,
                                    lambda: Matrix.identity(ext, dim), "a matrix")
        self.modules[statement.name] = SemilinearModule(group, dim, cocycle)

    def _build_map(self, statement):
        payload = statement.payload
        source = self.fields[payload["source"]]
        factors = [self.fields[name] for name in payload["factors"]]
        algebras = []
        for name, field in zip(payload["factors"], factors):
            if isinstance(field, ExtensionField):
                algebras.append(FiniteAlgebra.from_extension(field))
            else:
                algebras.append(FiniteAlgebra.base(field))
        target = algebras[0] if len(algebras) == 1 else FiniteAlgebra.product(algebras)
        if target.field != source:
            _fail_resolution(statement.line, statement.col,
                             "map source must be the common base field of the target")
        self.maps[statement.name] = AlgebraMap.base_inclusion(target)


# -- rendering helpers ------------------------------------------------------------

def field_decl_text(field):
    if isinstance(field, RationalField):
        return "QQ"
    if isinstance(field, PrimeField):
        return f"GF({field.p}^1)"
    raise AssertionError("unknown field kind")


def sorted_generators(ideal):
    return sorted(ideal.generators,
                  key=lambda g: (g.total_degree(), g.format()))


def algebra_decl_text(name, field_name, algebra):
    gens = sorted_generators(algebra.relations)
    body = f"{field_name}[{', '.join(algebra.variables)}]"
    if gens:
        body += "/(" + ", ".join(g.format() for g in gens) + ")"
    return f"algebra {name} = {body}"


def format_vector(vec, field):
    return "[" + ", ".join(field.format_element(a) for a in vec) + "]"


# -- command handlers --------------------------------------------------------------

def run_descend(workspace, command, oracle):
    datum = workspace.data[command.name]
    lines = [f"== descend {command.name}"]
    model = descend_algebra(datum, workspace.budget)
    base = model.algebra0.field
    k_name = f"k_{command.name}"
    lines.append(f"decl: field {k_name} = {field_decl_text(base)}")
    lines.append("decl: " + algebra_decl_text(
        f"model_{command.name}", k_name, model.algebra0))
    for name in model.algebra0.variables:
        lines.append(f"splitting: {name} -> {model.splitting[name].format()}")
    lines.append("splits check: pass")
    if oracle:
        # descend_algebra returns only a model whose splitting it certified
        lines.append("oracle: splitting ideal round trip : PASS")
        if datum.algebra.field.is_finite:
            action = derive_point_action(datum, workspace.budget)
            fixed = len(action.fixed_points())
            model_count = count_affine_points(
                list(model.algebra0.relations.generators), base,
                len(model.algebra0.variables), workspace.budget)
            if fixed != model_count:
                raise GaldescentError("point-count oracle failed")
            lines.append(
                f"oracle: fixed points {fixed} == model points {model_count} "
                ": PASS")
    return lines


def run_restrict(workspace, command, oracle):
    algebra = workspace.algebras[command.name]
    upper = workspace.fields[command.payload["over"]]
    lower = workspace.fields[command.payload["to"]]
    lines = [f"== restrict {command.name} over {command.payload['over']} "
             f"to {command.payload['to']}"]
    if algebra.field != upper:
        _fail_resolution(command.line, command.col,
                         "algebra is not over the named upper field")
    if not isinstance(upper, ExtensionField) or upper.base != lower:
        _fail_resolution(command.line, command.col,
                         "restriction target must be the base of the extension")
    if oracle:
        # the embeddings are the oracles' input; the restriction needs none
        group = workspace._group_for_field(upper, command)
        data = SeparableExtensionData.discover(upper, upper, group)
    result = weil_restrict(algebra, workspace.budget)
    lines.append(f"decl: field k_{command.name} = {field_decl_text(lower)}")
    lines.append("decl: " + algebra_decl_text(
        f"restrict_{command.name}", f"k_{command.name}", result.restricted))
    for v in algebra.variables:
        lines.append(f"substitution: {v} -> {result.substitution[v].format()}")
    if oracle:
        if lower.is_finite:
            restricted_count = count_affine_points(
                list(result.restricted.relations.generators), lower,
                len(result.restricted.variables), workspace.budget)
            report = conjugate_product_check(result, data, workspace.budget)
            # Omega is the upper field: the identity conjugate is the source
            source_count = next(
                count for tau, count in zip(data.embeddings, report.conjugate_counts)
                if tau.image == upper.generator)
            if restricted_count != source_count:
                raise GaldescentError("point-count oracle failed")
            lines.append(
                f"oracle: points over {command.payload['to']}: "
                f"{restricted_count} == points of {command.name} over "
                f"{command.payload['over']}: {source_count} : PASS")
            lines.append("oracle: conjugate product count : PASS")
        else:
            etale_splitting(data)
            lines.append(
                f"oracle: etale splitting into {data.degree} factors : PASS")
    return lines


def run_fixed(workspace, command, oracle):
    module = workspace.modules[command.name]
    lines = [f"== fixed {command.name}"]
    validate_action(module)
    # the counit matrix's columns are the fixed-subspace basis
    counit = counit_check(module)
    ext = module.group.ext
    lines.append(f"dimension: {counit.ncols}")
    for i in range(counit.ncols):
        lines.append(f"basis[{i}]: {format_vector(counit.col(i), ext)}")
    lines.append("counit: invertible")
    if oracle and ext.is_finite:
        count = count_fixed_vectors(module, workspace.budget)
        expected = ext.base.order ** counit.ncols
        if count != expected:
            raise GaldescentError("fixed-vector oracle failed")
        lines.append(f"oracle: fixed vectors {count} == {expected} : PASS")
    return lines


def run_amitsur(workspace, command, oracle):
    f = workspace.maps[command.name]
    rmax = command.payload["rmax"]
    complex_ = amitsur_complex(f, rmax, budget=workspace.budget)
    exactness = check_exactness(complex_)
    lines = [f"== amitsur {command.name} rmax={rmax}",
             f"faithfully flat: yes ({complex_.flatness.mode})",
             f"dim B = {f.target.dim}"]
    for degree, kernel_rank, image_rank in exactness.degrees:
        lines.append(f"degree {degree}: kernel {kernel_rank} == image {image_rank}")
    lines.append("exact: pass")
    return lines


def run_validate(workspace, command, oracle):
    kind = command.payload["kind"]
    name = command.name
    lines = [f"== validate {name}", "status: valid"]
    if kind == "datum":
        report = validate_datum(workspace.data[name], workspace.budget)
        lines.append(f"pairs checked: {report.pairs_checked}")
    elif kind == "module":
        report = validate_action(workspace.modules[name])
        lines.append(f"pairs checked: {report.pairs_checked}")
    elif kind == "group":
        group = workspace.groups[name]
        lines.append(f"order: {group.order}")
        lines.append(f"full: {'yes' if group.is_full else 'no'}")
    elif kind == "algebra":
        algebra = workspace.algebras[name]
        basis = algebra.relations.groebner(budget=workspace.budget)
        lines.append(f"groebner basis size: {len(basis)}")
        lines.append(f"unit ideal: {'yes' if algebra.is_empty_scheme else 'no'}")
    elif kind == "field":
        field = workspace.fields[name]
        if isinstance(field, ExtensionField):
            lines.append(f"degree: {field.degree}")
            lines.append(f"irreducibility: {field.irreducibility}")
        else:
            lines.append("degree: 1")
    else:
        # a map: names only ever have one of the six DECL_KINDS
        report = check_faithfully_flat(workspace.maps[name])
        lines.append(f"faithfully flat: yes ({report.mode})")
    return lines


HANDLERS = {
    "descend": run_descend,
    "restrict": run_restrict,
    "fixed": run_fixed,
    "amitsur": run_amitsur,
    "validate": run_validate,
}


def run(document, oracle=False, budget=None):
    """Execute a parsed document; returns (report text, diagnostics, exit code).
    ``budget`` is the command's reduction-step limit (default: Budget's)."""
    workspace = Workspace(Budget() if budget is None else Budget(budget))
    try:
        for statement in document.declarations:
            workspace.build(statement)
        command = document.command
        try:
            lines = HANDLERS[command.kind](workspace, command, oracle)
        except GaldescentError as error:
            _fail_validation(command, error)
    except CommandFailure as failure:
        return "", [failure.diagnostic], failure.exit_code
    return "\n".join(lines) + "\n", [], 0


@functools.cache
def _arg_parser():
    """The command-line parser, built once per process: ``parse_args`` keeps
    no state between calls."""
    arg_parser = argparse.ArgumentParser(
        prog="galdescent",
        description="Galois descent, Weil restriction and flat descent "
                    "calculator for affine schemes and modules.")
    arg_parser.add_argument("input", help="document file, or - for stdin")
    arg_parser.add_argument("--oracle", action="store_true",
                            help="also run brute-force point/enumeration checks")
    arg_parser.add_argument("--budget", type=int,
                            help="reduction-step budget for the Groebner engine")
    return arg_parser


def main(argv=None):
    args = _arg_parser().parse_args(argv)
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as error:
        # the whole file is decoded at once, so the offset is the file's
        print(f"error[input] {args.input}: byte {error.object[error.start]:#04x} at offset "
              f"{error.start} is not UTF-8", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error[input] {args.input}: {error.strerror or error}", file=sys.stderr)
        return 2
    try:
        document = parse(text)
    except ParseError as error:
        print(error.diagnostic.render(), file=sys.stderr)
        return 2
    report, diagnostics, exit_code = run(document, oracle=args.oracle,
                                         budget=args.budget)
    if report:
        sys.stdout.write(report)
    for diagnostic in diagnostics:
        print(diagnostic.render(), file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
