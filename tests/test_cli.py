import hashlib
import inspect
import json
import pathlib
import random
import subprocess
import sys

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a test extra: every other test runs without it
    given = None

from galdescent import affine, cli, flat, groebner, weil
from galdescent.cli import main, run
from galdescent.enumeration import count_affine_points
from galdescent.errors import Budget
from galdescent.extension import ExtensionField
from galdescent.linalg import Matrix
from galdescent.multipoly import MultiPolynomial
from galdescent.parser import Diagnostic, ParseError, parse

HERE = pathlib.Path(__file__).parent
DOCUMENTS = HERE / "documents"
GOLDEN = HERE / "golden"
LARGE = HERE / "large"

ORACLE = {"descend_canonical_line", "descend_swap_f9", "restrict_gm_f4",
          "fixed_f9_swap", "restrict_sqrt_i"}

DOC_NAMES = sorted(p.stem for p in DOCUMENTS.glob("*.txt"))
DESCEND_NAMES = [name for name in DOC_NAMES if name.startswith("descend_")]

# exit code and report of every document in the mode tests/golden does not
# cover, as recorded by the benchmark
OTHER_MODE = json.loads((HERE.parent / "perfbench" / "expected.json").read_text())


def patch_during(monkeypatch, functions, owner, attr, replacement):
    """Make ``replacement`` the ``attr`` of ``owner`` only while one of the
    named functions of ``cli`` runs, so that what the command builds before
    them (its algebras, say) runs unpatched."""
    original = getattr(owner, attr)

    def scoped(function):
        def wrapper(*args, **kwargs):
            setattr(owner, attr, replacement)
            try:
                return function(*args, **kwargs)
            finally:
                setattr(owner, attr, original)
        return wrapper

    for name in functions:
        monkeypatch.setattr(cli, name, scoped(getattr(cli, name)))


def run_document(name, oracle=None):
    text = (DOCUMENTS / f"{name}.txt").read_text()
    document = parse(text)
    return run(document, oracle=name in ORACLE if oracle is None else oracle)


class TestGolden:
    @pytest.mark.parametrize("name", DOC_NAMES)
    def test_matches_golden(self, name):
        report, diagnostics, code = run_document(name)
        assert code == 0
        assert not diagnostics
        assert report == (GOLDEN / f"{name}.golden").read_text()
        other = name not in ORACLE
        expected = OTHER_MODE[f"{name}:{'oracle' if other else 'plain'}"]
        report, _, code = run_document(name, oracle=other)
        assert (code, report) == (expected["code"], expected["stdout"])

    @pytest.mark.parametrize("name", DOC_NAMES)
    def test_two_runs_byte_identical(self, name):
        first = run_document(name)
        second = run_document(name)
        assert first[0] == second[0]

    @pytest.mark.parametrize("name", DOC_NAMES)
    def test_round_trip_revalidates(self, name):
        report, _, _ = run_document(name)
        decls = [line[len("decl: "):] for line in report.splitlines()
                 if line.startswith("decl: ")]
        if not decls:
            return
        last_name = decls[-1].split()[1]
        document = parse("\n".join(decls + [f"validate {last_name}"]))
        second_report, diagnostics, code = run(document)
        assert code == 0, [d.render() for d in diagnostics]
        assert "status: valid" in second_report


class TestErrors:
    def test_parse_error_location(self):
        with pytest.raises(ParseError) as info:
            parse("field F9 = GF(3^^2)\nvalidate F9\n")
        assert info.value.diagnostic.line == 1

    def test_unresolved_reference(self):
        with pytest.raises(ParseError) as info:
            parse("algebra A = F9[x]\nvalidate A\n")
        assert info.value.diagnostic.code == "unresolved"

    def test_missing_command(self):
        with pytest.raises(ParseError):
            parse("field F9 = GF(3^2)\n")

    def test_corrupted_datum_exit_1(self):
        text = (
            "field C4 = Cyclo(4)\n"
            "algebra A = C4[x]\n"
            "datum D on A : s3 => { x -> x + 1 }\n"
            "validate D\n")
        report, diagnostics, code = run(parse(text))
        assert code == 1
        assert diagnostics[0].code == "cocycle-violation"
        assert "s3" in diagnostics[0].message

    def test_invalid_field_exit_1(self):
        text = "field F = GF(5^2, modulus=t^2 - 1)\nvalidate F\n"
        report, diagnostics, code = run(parse(text))
        assert code == 1
        assert diagnostics[0].code == "not-irreducible"

    @pytest.mark.parametrize("ctor", ["GF(4)", "GF(4^2)", "GF(1)", "GF(9^1)",
                                      "Cyclo(2)", "Cyclo(0)"])
    def test_invalid_field_parameter_exit_1(self, ctor):
        report, diagnostics, code = run(parse(f"field F = {ctor}\nvalidate F\n"))
        assert (report, code) == ("", 1)
        assert (diagnostics[0].line, diagnostics[0].code) == (1, "invalid-field-parameter")

    @pytest.mark.parametrize("modulus,code,exit_code", [
        ("t^2 + 1", "field-mismatch", 1),
        ("zz", "unresolved", 2),
        ("2*t + 1", "not-monic", 1),
        ("t + 3", None, 0),
    ])
    def test_prime_field_modulus_checked(self, modulus, code, exit_code):
        # with n = 1 the modulus is validated, and the field stays GF(5)
        for ctor in ("GF(5^1", "GF(5"):
            text = f"field F = {ctor}, modulus={modulus})\nvalidate F\n"
            report, diagnostics, got = run(parse(text))
            assert got == exit_code
            if code is None:
                assert report == "== validate F\nstatus: valid\ndegree: 1\n"
            else:
                assert report == "" and diagnostics[0].code == code

    @pytest.mark.parametrize("name,function,message", [
        ("descend_swap_f9", "count_affine_points", "point-count oracle failed"),
        ("restrict_gm_f4", "count_affine_points", "point-count oracle failed"),
        ("fixed_f9_swap", "count_fixed_vectors", "fixed-vector oracle failed"),
    ])
    def test_failed_oracle_prints_no_report(self, name, function, message,
                                            monkeypatch, capsys):
        # -1, -2, ...: never a true count, and the two restrict counts differ
        wrong = iter(range(-1, -10, -1))
        monkeypatch.setattr(cli, function, lambda *args: next(wrong))
        code = main([str(DOCUMENTS / f"{name}.txt"), "--oracle"])
        out, err = capsys.readouterr()
        assert (out, code) == ("", 1)
        assert "[galdescent-error]" in err and err.rstrip().endswith(message)

    def test_budget_exit_3(self):
        text = (
            "field F7 = GF(7^2)\n"
            "algebra A = F7[a,b,c]/(a^3 + b*c + 1, b^3 + a*c + 1, c^3 + a*b + 1, "
            "a*b*c - 1)\n"
            "datum D on A : frob => { a -> b, b -> a, c -> c }\n"
            "descend D\n")
        report, diagnostics, code = run(parse(text), budget=50)
        assert code == 3
        assert diagnostics[0].code == "budget-exceeded"

    def test_unknown_symbol_in_polynomial_exit_2(self):
        text = (
            "field C4 = Cyclo(4)\n"
            "algebra A = C4[x]/(x^2 - w)\n"
            "validate A\n")
        report, diagnostics, code = run(parse(text))
        assert code == 2
        assert diagnostics[0].code == "unresolved"

    def test_missing_sigma_block_exit_2(self):
        text = (
            "field C5 = Cyclo(5)\n"
            "algebra A = C5[x]\n"
            "datum D on A : s2 => { x -> x }\n"
            "validate D\n")
        report, diagnostics, code = run(parse(text))
        assert code == 2
        assert "misses a block" in diagnostics[0].message


    def test_invalid_module_fixed_exit_1(self, tmp_path, capsys):
        # frob2 => I breaks the cocycle law at (frob, frob); fixed validates
        # the action before it reads the fixed space off the generators
        doc = tmp_path / "doc.txt"
        doc.write_text(
            "field F2 = GF(2^1)\n"
            "field F8 = GF(2^3)\n"
            "group G = Aut(F8/F2)\n"
            "module M on G dim 3 : frob => [[0,1,0],[0,0,1],[1,0,0]] "
            ": frob2 => [[1,0,0],[0,1,0],[0,0,1]]\n"
            "fixed M\n")
        assert main([str(doc)]) == 1
        assert capsys.readouterr() == (
            "", "error[cocycle-violation] line 5, col 1: cocycle law fails at "
                "pair (frob, frob)\n")

    def test_singular_cocycle_is_a_cocycle_violation(self, tmp_path, capsys):
        # with c_id = I the law at (frob, frob^-1) forces c_frob invertible,
        # so a singular c_frob fails the law; no separate rank check runs
        doc = tmp_path / "doc.txt"
        doc.write_text(
            "field F2 = GF(2^1)\n"
            "field F4 = GF(2^2)\n"
            "group G = Aut(F4/F2)\n"
            "module M on G dim 2 : frob => [[1,0],[0,0]]\n"
            "validate M\n")
        assert main([str(doc)]) == 1
        assert capsys.readouterr() == (
            "", "error[cocycle-violation] line 5, col 1: cocycle law fails at "
                "pair (frob, frob)\n")


F9 = "field F3 = GF(3)\nfield F9 = GF(3^2)\n"
A9 = F9 + "algebra A = F9[x]\n"
G9 = F9 + "group G = Aut(F9/F3)\n"
F27 = "field F3 = GF(3)\nfield F27 = GF(3^3)\n"
QI = "field K = Ext(QQ, modulus=t^2 + 1, irreducible=assert)\n"
# the circle over Q(2^(1/3)), a field with no full automorphism group
CUBE_ROOT_CIRCLE = ("field Q = QQ\nfield K = Ext(QQ, modulus=t^3 - 2, irreducible=assert)\n"
                    "algebra C = K[x, y]/(x^2 + y^2 - 1)\nrestrict C over K to Q\n")

# one document per parser or resolution diagnostic, with the exit code and
# the stderr line the CLI prints for it
DIAGNOSTICS = [
    ("$\n", 2, "error[syntax] line 1, col 1: unexpected character '$'"),
    ("field F = GF(\n", 2, "error[syntax] line 1, col 14: unexpected end of statement"),
    ("field F = QQ QQ\n", 2, "error[syntax] line 1, col 14: unexpected trailing 'QQ'"),
    ("field F = QQ\nalgebra A = F[x]/(x - 1/0)\nvalidate A\n", 2,
     "error[syntax] line 2, col 25: zero denominator"),
    ("field F = QQ\nalgebra A = F[x]/(x + ,)\nvalidate A\n", 2,
     "error[syntax] line 2, col 23: expected a polynomial term, found ','"),
    ("field F = 3\n", 2, "error[syntax] line 1, col 11: expected a field constructor"),
    ("field F = GF(3^2, mod=t^2 + 1)\n", 2,
     "error[syntax] line 1, col 19: expected 'modulus='"),
    ("field F = Ext(GF, modulus=t^2 + 1)\n", 2,
     "error[syntax] line 1, col 15: Ext base must be QQ"),
    ("field F = Ext(QQ, mod=t^2 + 1)\n", 2,
     "error[syntax] line 1, col 19: expected 'modulus='"),
    ("field F = Ext(QQ, modulus=t^2 + 1, irr=assert)\n", 2,
     "error[syntax] line 1, col 36: expected 'irreducible=assert'"),
    ("field F = Ext(QQ, modulus=t^2 + 1, irreducible=yes)\n", 2,
     "error[syntax] line 1, col 48: only 'irreducible=assert' is supported"),
    ("field F = Foo(3)\n", 2,
     "error[syntax] line 1, col 11: unknown field constructor 'Foo'"),
    ("group G =\n", 2, "error[syntax] line 1, col 1: missing group body"),
    (F9 + "group G = F9[x -> x]\n", 2,
     "error[syntax] line 3, col 14: automorphisms are written 't -> <poly>'"),
    ("field F = QQ\nalgebra A = F[x]\nalgebra B = A[y]\n", 2,
     "error[unresolved] line 3, col 13: 'A' is an algebra, expected a field"),
    ("field F = QQ\nalgebra A = F[x, x]\n", 2,
     "error[syntax] line 2, col 1: duplicate variable names"),
    (A9 + "datum D on A\n", 2,
     "error[syntax] line 4, col 1: datum needs at least one ': <label> => {...}' block"),
    (G9 + "module M on G dim 2\n", 2,
     "error[syntax] line 4, col 1: module needs at least one ': <label> => [[...]]' block"),
    (G9 + "module M on G dim 2 : frob => [[0, 1], [1]]\n", 2,
     "error[syntax] line 4, col 1: ragged matrix literal"),
    ("validate X\n", 2, "error[unresolved] line 1, col 10: undeclared name 'X'"),
    ("field F = QQ\nvalidate F\nfield E = QQ\n", 2,
     "error[syntax] line 3, col 1: declarations must precede the command"),
    ("field F = QQ\nfield F = QQ\n", 2,
     "error[unresolved] line 2, col 7: duplicate name 'F'"),
    ("field F = QQ\nvalidate F\nvalidate F\n", 2,
     "error[syntax] line 3, col 1: only one command per document"),
    (F9 + "group G = Aut(F3/F9)\nvalidate G\n", 2,
     "error[unresolved] line 3, col 1: F3 is not an extension of F9"),
    (QI + "field Q = QQ\ngroup G = Aut(K/Q)\nvalidate G\n", 2,
     "error[unresolved] line 3, col 1: no built-in automorphism family for this "
     "field; declare an explicit automorphism list"),
    ("field Q = QQ\ngroup G = Q[t -> t]\nvalidate G\n", 2,
     "error[unresolved] line 2, col 1: explicit groups need an extension field"),
    ("field Q = QQ\nalgebra A = Q[x]\ndatum D on A : s => { x -> x }\nvalidate D\n", 2,
     "error[unresolved] line 3, col 1: descent data need an algebra over an "
     "extension field"),
    (A9 + "datum D on A : frob => { y -> x }\nvalidate D\n", 2,
     "error[unresolved] line 4, col 26: 'y' is not a variable of the algebra"),
    (F9 + "algebra A = F9[x, y]\ndatum D on A : frob => { x -> y }\nvalidate D\n", 2,
     "error[unresolved] line 4, col 16: block 'frob' misses images for y"),
    (A9 + "datum D on A : frob => { x -> x } : foo => { x -> x }\nvalidate D\n", 2,
     "error[unresolved] line 4, col 37: 'foo' is not a group element "
     "(elements: id, frob)"),
    (F27 + "algebra A = F27[x]\ndatum D on A : frob => { x -> x }\nvalidate D\n", 2,
     "error[unresolved] line 4, col 1: datum misses a block for group element 'frob2'"),
    (F27 + "group G = Aut(F27/F3)\nmodule M on G dim 1 : frob => [[1]]\nvalidate M\n", 2,
     "error[unresolved] line 4, col 1: module misses a matrix for group element "
     "'frob2'"),
    (G9 + "module M on G dim 1 : frob => [[1]] : foo => [[1]]\nvalidate M\n", 2,
     "error[unresolved] line 4, col 39: 'foo' is not a group element "
     "(elements: id, frob)"),
    # one block per group element, and one image per variable in a block
    (F9 + "algebra X = F9[x, y]/(x*y - 1)\n"
     "datum D on X : frob => { x -> y, y -> x } : frob => { x -> x, y -> y }\n"
     "descend D\n", 2,
     "error[unresolved] line 4, col 45: 'frob' already has a block"),
    (G9 + "module M on G dim 1 : frob => [[1]] : frob => [[2]]\nvalidate M\n", 2,
     "error[unresolved] line 4, col 39: 'frob' already has a block"),
    (F9 + "algebra X = F9[x, y]\ndatum D on X : frob => { x -> y, x -> x, y -> x }\n"
     "validate D\n", 2,
     "error[unresolved] line 4, col 34: 'x' already has an image"),
    (G9 + "module M on G dim 2 : frob => [[1]]\nvalidate M\n", 2,
     "error[unresolved] line 4, col 23: matrix for 'frob' is not 2x2"),
    # a block's shape is checked before any identity matrix of that size is built
    (G9 + "module M on G dim 200000000 : frob => [[1]]\nvalidate M\n", 2,
     "error[unresolved] line 4, col 31: matrix for 'frob' is not "
     "200000000x200000000"),
    ("field F3 = GF(3)\nfield F5 = GF(5)\nmap f = F3 -> F5\nvalidate f\n", 2,
     "error[unresolved] line 3, col 1: map source must be the common base field "
     "of the target"),
    (F27 + "field F9 = GF(3^2)\nalgebra A = F9[x]\nrestrict A over F27 to F3\n", 2,
     "error[unresolved] line 5, col 1: algebra is not over the named upper field"),
    (A9 + "restrict A over F9 to F9\n", 2,
     "error[unresolved] line 4, col 1: restriction target must be the base of "
     "the extension"),
]

# documents whose diagnostic only --oracle reaches
ORACLE_DIAGNOSTICS = [
    # the oracles read the embeddings of the upper field, found by its group
    (CUBE_ROOT_CIRCLE, 2,
     "error[unresolved] line 4, col 1: no full automorphism group known for the "
     "algebra's field; declare one"),
]

# documents whose declarations and command take paths no golden document
# takes, with their reports
REPORTS = [
    (G9 + "module M on G dim 2 : frob => [[0, 1], [1, 0]]\nvalidate M\n",
     "== validate M\nstatus: valid\npairs checked: 4\n"),
    (F9 + "map f = F3 -> F9\nvalidate f\n",
     "== validate f\nstatus: valid\nfaithfully flat: yes (field-source)\n"),
    (F9 + "validate F9\n",
     "== validate F9\nstatus: valid\ndegree: 2\nirreducibility: verified\n"),
    (QI + "validate K\n",
     "== validate K\nstatus: valid\ndegree: 2\nirreducibility: asserted\n"),
    # the datum finds its group among the declared groups
    (QI + "group G = K[t -> t, t -> -t]\nalgebra A = K[x]\n"
     "datum D on A : a1 => { x -> x }\nvalidate D\n",
     "== validate D\nstatus: valid\npairs checked: 4\n"),
    # the restriction reads only the upper field, not its automorphisms
    (CUBE_ROOT_CIRCLE,
     "== restrict C over K to Q\ndecl: field k_C = QQ\n"
     "decl: algebra restrict_C = k_C[x_0, x_1, x_2, y_0, y_1, y_2]/("
     "2*x_0*x_1 + 2*x_2^2 + 2*y_0*y_1 + 2*y_2^2, "
     "x_0^2 + 4*x_1*x_2 + y_0^2 + 4*y_1*y_2 - 1, "
     "x_1^2 + 2*x_0*x_2 + y_1^2 + 2*y_0*y_2)\n"
     "substitution: x -> x_0 + (t)*x_1 + (t^2)*x_2\n"
     "substitution: y -> y_0 + (t)*y_1 + (t^2)*y_2\n"),
]


class TestDiagnosticTable:
    @staticmethod
    def run_main(text, tmp_path, capsys, *flags):
        doc = tmp_path / "doc.txt"
        doc.write_text(text)
        code = main([str(doc), *flags])
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("text,code,line", DIAGNOSTICS)
    def test_diagnostic(self, text, code, line, tmp_path, capsys):
        assert self.run_main(text, tmp_path, capsys) == (code, "", line + "\n")

    @pytest.mark.parametrize("text,code,line", ORACLE_DIAGNOSTICS)
    def test_oracle_diagnostic(self, text, code, line, tmp_path, capsys):
        assert self.run_main(text, tmp_path, capsys, "--oracle") == (code, "", line + "\n")

    @pytest.mark.parametrize("text,report", REPORTS)
    def test_report(self, text, report, tmp_path, capsys):
        assert self.run_main(text, tmp_path, capsys) == (0, report, "")

    @pytest.mark.parametrize("kind,line", [
        ("not UTF-8", "error[input] {path}: byte 0xff at offset 13 is not UTF-8"),
        ("missing", "error[input] {path}: No such file or directory"),
        ("directory", "error[input] {path}: Is a directory"),
    ])
    def test_unreadable_input(self, kind, line, tmp_path, capsys):
        # an input that cannot be read as text is an input error, exit 2,
        # not a traceback
        path = tmp_path / "doc.txt"
        if kind == "not UTF-8":
            path.write_bytes(b"field F = QQ\n\xff\nvalidate F\n")
        elif kind == "directory":
            path.mkdir()
        code = main([str(path)])
        assert (code, *capsys.readouterr()) == (2, "", line.format(path=path) + "\n")


def shuffled_blocks(text, rng):
    """``text`` with its datum or module's identity block written out, its
    blocks in a random order, and the images in each datum block too."""
    lines = []
    for line in text.splitlines():
        kind = line.split(" ", 1)[0]
        if kind not in ("datum", "module"):
            lines.append(line)
            continue
        head, *blocks = (part.strip() for part in line.split(":"))
        if kind == "datum":
            parsed = [(label.strip(), [image.strip() for image in body.strip(" {}").split(",")])
                      for label, body in (block.split("=>") for block in blocks)]
            variables = [image.split("->")[0].strip() for image in parsed[0][1]]
            parsed.append(("id", [f"{v} -> {v}" for v in variables]))
            for _, images in parsed:
                rng.shuffle(images)
            blocks = [f"{label} => {{ {', '.join(images)} }}" for label, images in parsed]
        else:
            dim = int(head.split()[-1])
            blocks.append("id => [" + ", ".join(
                "[" + ", ".join(str(int(i == j)) for j in range(dim)) + "]"
                for i in range(dim)) + "]")
        rng.shuffle(blocks)
        lines.append(" : ".join([head] + blocks))
    return "\n".join(lines) + "\n"


class TestBlockOrder:
    """A datum or module is read by group-element label and a block by
    variable: the order in which they are written does not show in the
    report.  Seeded shuffles, with the identity block written out so that
    every document has at least two blocks."""

    @pytest.mark.parametrize("name", [
        name for name in DOC_NAMES
        if any(line.split(" ", 1)[0] in ("datum", "module")
               for line in (DOCUMENTS / f"{name}.txt").read_text().splitlines())])
    def test_permuted_blocks_same_report(self, name):
        text = (DOCUMENTS / f"{name}.txt").read_text()
        expected = run_document(name)
        for seed in range(4):
            shuffled = shuffled_blocks(text, random.Random(seed))
            assert shuffled != text
            assert run(parse(shuffled), oracle=name in ORACLE) == expected, shuffled


class TestDescendChecksOnce:
    """``descend`` validates, eliminates and certifies inside one
    ``descend_algebra`` call under one budget; ``--oracle`` adds no Groebner
    work."""

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("name", DESCEND_NAMES)
    def test_one_elimination(self, name, oracle, monkeypatch):
        calls = {"eliminate": 0, "buchberger": 0}

        def counted(key, function):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(affine, "eliminate", counted("eliminate", affine.eliminate))
        monkeypatch.setattr(groebner, "buchberger",
                            counted("buchberger", groebner.buchberger))
        _, _, code = run_document(name, oracle=oracle)
        assert code == 0
        assert calls["eliminate"] == 1
        assert calls["buchberger"] <= 5

    def test_budget_bounds_the_whole_command(self):
        # validation, construction and certificate of the GF(9) swap descent
        # take 28 Groebner steps in all, and the oracle takes none
        document = parse((DOCUMENTS / "descend_swap_f9.txt").read_text())
        _, diagnostics, code = run(document, oracle=True, budget=28)
        assert code == 0 and not diagnostics
        _, diagnostics, code = run(document, oracle=True, budget=27)
        assert code == 3
        assert diagnostics[0].code == "budget-exceeded"

    def test_invalid_datum_fails_validation(self):
        text = (
            "field F = GF(3^2)\n"
            "algebra A = F[x]\n"
            "datum D on A : frob => { x -> x + 1 }\n"
            "descend D\n")
        report, diagnostics, code = run(parse(text))
        assert (report, code) == ("", 1)
        assert diagnostics[0].code == "cocycle-violation"
        assert diagnostics[0].line == 4


class TestChecksOnce:
    @pytest.mark.parametrize("oracle", [False, True])
    def test_amitsur_composites_multiplied_once(self, oracle, monkeypatch):
        shapes = []
        multiply = Matrix.__mul__

        def counted(self, other):
            shapes.append((self.nrows, self.ncols, other.ncols))
            return multiply(self, other)

        patch_during(monkeypatch, ["amitsur_complex", "check_exactness"],
                     Matrix, "__mul__", counted)
        _, _, code = run_document("amitsur_f9", oracle=oracle)
        assert code == 0
        # d^1 d^0, d^2 d^1 and d^3 d^2 for rmax=3 over GF(9), dim B = 2,
        # each once; then the homotopy h_0 d^0, and h_{r+1} d^{r+1} and
        # d^r h_r for r = 0, 1, 2
        assert shapes == [(4, 2, 1), (8, 4, 2), (16, 8, 4), (1, 2, 1),
                          (2, 4, 2), (2, 1, 2), (4, 8, 4), (4, 2, 4),
                          (8, 16, 8), (8, 4, 8)]

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("name", ["amitsur_f9", "amitsur_q_product"])
    def test_amitsur_checks_flatness_once(self, name, oracle, monkeypatch):
        # the complex carries the report that the command prints
        calls = []
        check = flat.check_faithfully_flat

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(flat, "check_faithfully_flat", counted)
        monkeypatch.setattr(cli, "check_faithfully_flat", counted)
        _, _, code = run_document(name, oracle=oracle)
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("name", ["amitsur_f9", "amitsur_q_product"])
    def test_amitsur_reduces_no_matrix_of_the_complex(self, name, monkeypatch):
        # exactness is proved by products alone, and the printed ranks
        # follow from it
        complexes, reduced = [], []
        build, rref = cli.amitsur_complex, Matrix.rref

        def recorded(*args, **kwargs):
            complexes.append(build(*args, **kwargs))
            return complexes[-1]

        def reduce(self):
            reduced.append(self)
            return rref(self)

        monkeypatch.setattr(cli, "amitsur_complex", recorded)
        monkeypatch.setattr(Matrix, "rref", reduce)
        _, _, code = run_document(name)
        assert code == 0 and len(complexes) == 1
        maps = [complexes[0].first, *complexes[0].differentials]
        assert not any(a == b for a in reduced for b in maps)


class TestLarge:
    @pytest.mark.parametrize("name, digest", [
        ("validate_katsura6_fp",
         "1cd2c48e662ab2b92e8c5e1265da971571870c7279060e40126ff53f9bb6ce06"),
        ("validate_katsura5_qq",
         "ceaec6371429a13364cb331bbed4706ab00aed1a9c3b3f5baedc71bc2caf4972"),
        ("validate_cyclic5_qq",
         "a6f4f581bdccaa8c7075fb716f27e27e244972de2e93a615dc1ac58d56e03699"),
        ("validate_katsura7_fp",
         "e8ddadbd8182e0d7c721c774337c58107fae7e9409886a960ae64a76337d7a76"),
    ])
    def test_katsura_basis_matches_expected(self, name, digest):
        # the report prints only the basis size, so the basis itself is held
        # to the sha256 of its sorted, formatted elements, rendered by the
        # engine that ran the Groebner kernel on packed-integer monomials
        # (cyclic-5: by that engine still reducing over QQ on Fractions;
        # Katsura-7: by that engine under Gebauer and Moeller's update)
        document = parse((LARGE / f"{name}.txt").read_text())
        workspace = cli.Workspace(Budget())
        for statement in document.declarations:
            workspace.build(statement)
        basis = workspace.algebras[document.command.name].relations.groebner()
        text = "\n".join(sorted(g.format() for g in basis))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(p.stem for p in LARGE.glob("*.txt")))
    def test_large_document_matches_expected(self, name):
        # each expected report was rendered by an earlier engine (see the
        # "Large documents" CI step, which also runs them without
        # site-packages); one with oracle lines was made with --oracle
        expected = (LARGE / f"{name}.expected").read_text()
        oracle = any(line.startswith("oracle:") for line in expected.splitlines())
        report, diagnostics, code = run(parse((LARGE / f"{name}.txt").read_text()),
                                        oracle=oracle)
        assert (code, diagnostics, report) == (0, [], expected)


class TestBudget:
    BOUNDED = {
        "descend_swap_f9": {"descend_algebra", "derive_point_action", "count_affine_points"},
        "restrict_gm_f4": {"weil_restrict", "count_affine_points", "conjugate_product_check"},
        "fixed_f9_swap": {"count_fixed_vectors"},
        "amitsur_f9": {"amitsur_complex"},
    }

    @pytest.mark.parametrize("name", sorted(BOUNDED))
    def test_one_budget_per_command(self, name, monkeypatch):
        seen = []

        def recorded(function):
            signature = inspect.signature(function)

            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                seen.append((function.__name__, bound.get("budget")))
                return function(*args, **kwargs)
            return wrapper

        for function in ("descend_algebra", "validate_datum", "derive_point_action",
                         "weil_restrict", "count_affine_points", "conjugate_product_check",
                         "count_fixed_vectors", "amitsur_complex"):
            monkeypatch.setattr(cli, function, recorded(getattr(cli, function)))
        _, _, code = run_document(name, oracle=True)
        assert code == 0
        assert {function for function, _ in seen} == self.BOUNDED[name]
        budgets = {id(budget) for _, budget in seen}
        assert len(budgets) == 1 and isinstance(seen[0][1], Budget)

    def test_restrict_oracle_scans_the_source_once(self, monkeypatch):
        # the restriction, then over Omega = GF(4) the restriction and the
        # two conjugates, the identity one being the source itself; x*y - 1
        # has base-field coefficients, so both conjugates are one system,
        # scanned once
        calls = []

        def counted(*args):
            calls.append(args)
            return count_affine_points(*args)

        monkeypatch.setattr(cli, "count_affine_points", counted)
        monkeypatch.setattr(weil, "count_affine_points", counted)
        report, diagnostics, code = run_document("restrict_gm_f4", oracle=True)
        assert (code, diagnostics) == (0, [])
        assert report == (GOLDEN / "restrict_gm_f4.golden").read_text()
        assert len(calls) == 3

    def test_tensor_power_refused_before_building(self, monkeypatch):
        def refuse(*factors):
            raise AssertionError("tensor power built before the budget check")

        patch_during(monkeypatch, ["amitsur_complex"], flat, "kron", refuse)
        text = ("field F3 = GF(3^1)\n"
                "field F9 = GF(3^2)\n"
                "map f = F3 -> F9\n"
                "amitsur f rmax=12\n")
        report, diagnostics, code = run(parse(text))
        assert (report, code) == ("", 3)
        assert diagnostics[0].render() == (
            "error[budget-exceeded] line 4, col 1: dim B^(x)13 = 8192 exceeds cap 4096")

    def test_oversized_restriction_refused_before_expanding(self, monkeypatch):
        # x^22 in 20 coordinates expands to up to C(41, 22) monomials
        def refuse(*args):
            raise AssertionError("expanded before the budget check")

        patch_during(monkeypatch, ["weil_restrict"], MultiPolynomial, "transform", refuse)
        text = ("field Q0 = QQ\n"
                "field C4 = Cyclo(44)\n"
                "algebra V = C4[x]/(x^22 - t)\n"
                "restrict V over C4 to Q0\n")
        report, diagnostics, code = run(parse(text))
        assert (report, code) == ("", 3)
        assert diagnostics[0].render() == (
            "error[budget-exceeded] line 4, col 1: coordinate expansion of up to "
            "244662670201 monomials exceeds budget 2000000")

    @pytest.mark.parametrize("rmax", [65537, 10 ** 9])
    def test_huge_tensor_power_refused_without_its_dimension(self, rmax):
        # 2^65538 has more than 4,300 digits, too many for str(int)
        text = ("field F3 = GF(3^1)\n"
                "field F9 = GF(3^2)\n"
                "map f = F3 -> F9\n"
                f"amitsur f rmax={rmax}\n")
        report, diagnostics, code = run(parse(text))
        assert (report, code) == ("", 3)
        assert diagnostics[0].render() == (
            f"error[budget-exceeded] line 4, col 1: dim B^(x){rmax + 1} exceeds "
            "cap 4096: dim B^(x)13 = 8192 already does")

    def test_tensor_powers_of_dimension_one_always_fit(self):
        # the powers of 1 never pass the cap, so no loop may run to the power
        assert Budget().check_tensor_power(1, 10 ** 18) is None

    @staticmethod
    def one_dimensional_amitsur(rmax):
        return parse("field F3 = GF(3^1)\n"
                     "map f = F3 -> F3\n"
                     f"amitsur f rmax={rmax}\n")

    @pytest.mark.parametrize("rmax", [4096, 10 ** 9])
    def test_long_complex_over_one_dimensional_target_refused(self, rmax, monkeypatch):
        # every tensor power of a one-dimensional B fits, so the number of
        # differentials is capped instead, before any of them is built
        def refuse(*factors):
            raise AssertionError("differential built before the length check")

        patch_during(monkeypatch, ["amitsur_complex"], flat, "kron", refuse)
        report, diagnostics, code = run(self.one_dimensional_amitsur(rmax))
        assert (report, code) == ("", 3)
        assert diagnostics[0].render() == (
            f"error[budget-exceeded] line 3, col 1: {rmax + 1} tensor powers of B "
            "exceed cap 4096")

    def test_short_complex_over_one_dimensional_target_keeps_its_report(self):
        report, diagnostics, code = run(self.one_dimensional_amitsur(4))
        assert (diagnostics, code) == ([], 0)
        assert report == (
            "== amitsur f rmax=4\n"
            "faithfully flat: yes (field-source)\n"
            "dim B = 1\n"
            "degree 0: kernel 1 == image 1\n"
            "degree 1: kernel 0 == image 0\n"
            "degree 2: kernel 1 == image 1\n"
            "degree 3: kernel 0 == image 0\n"
            "exact: pass\n")

    def test_longest_complex_over_one_dimensional_target_fits(self):
        report, diagnostics, code = run(self.one_dimensional_amitsur(4095))
        assert (diagnostics, code) == ([], 0)
        assert report.endswith("degree 4094: kernel 1 == image 1\nexact: pass\n")

    def test_restrict_from_own_splitting_field_lists_no_elements(self, monkeypatch):
        def refuse(self):
            raise AssertionError("field elements listed")

        monkeypatch.setattr(ExtensionField, "elements", refuse)
        text = ("field F = GF(3^9)\n"
                "field F3 = GF(3^1)\n"
                "algebra A = F[x]/(x - 1)\n"
                "restrict A over F to F3\n")
        report, diagnostics, code = run(parse(text))
        assert (code, diagnostics) == (0, [])
        assert "/(x_0 + 2, x_1, x_2, x_3, x_4, x_5, x_6, x_7, x_8)" in report

    def test_large_prime_field(self):
        text = "field F = GF(100000000000000000039)\nvalidate F\n"
        report, diagnostics, code = run(parse(text))
        assert (code, diagnostics) == (0, [])
        assert report == "== validate F\nstatus: valid\ndegree: 1\n"

    def test_large_prime_power_without_modulus_refused(self):
        text = "field F = GF(100000000000000000039^2)\nvalidate F\n"
        report, diagnostics, code = run(parse(text))
        assert (report, code) == ("", 1)
        assert diagnostics[0].render() == (
            "error[invalid-field-parameter] line 1, col 1: no default modulus for "
            "GF(100000000000000000039^2): p exceeds 2000000; give modulus=")


class TestMultiBlock:
    def test_datum_with_three_blocks(self):
        text = (
            "field C5 = Cyclo(5)\n"
            "algebra A = C5[x]\n"
            "datum D on A : s2 => { x -> x } : s3 => { x -> x } "
            ": s4 => { x -> x }\n"
            "validate D\n")
        report, diagnostics, code = run(parse(text))
        assert code == 0
        assert "pairs checked: 16" in report


class TestMainEntry:
    def test_main_reads_file(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text((DOCUMENTS / "amitsur_f9.txt").read_text())
        code = main([str(doc)])
        captured = capsys.readouterr()
        assert code == 0
        assert "exact: pass" in captured.out

    def test_main_parse_error(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        doc.write_text("nonsense statement\n")
        code = main([str(doc)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error[" in captured.err

    def test_successive_calls_parse_only_their_own_options(self, capsys, monkeypatch):
        # the argument parser is built once per process, so nothing of the
        # first call's options may reach the second
        calls = []

        def recorded(document, oracle=False, budget=None):
            calls.append((oracle, budget))
            return run(document, oracle=oracle, budget=budget)

        monkeypatch.setattr(cli, "run", recorded)
        doc = str(DOCUMENTS / "descend_swap_f9.txt")
        assert main([doc, "--oracle", "--budget", "80"]) == 0
        assert capsys.readouterr() == ((GOLDEN / "descend_swap_f9.golden").read_text(), "")
        assert main([doc]) == 0
        assert capsys.readouterr() == (OTHER_MODE["descend_swap_f9:plain"]["stdout"], "")
        assert calls == [(True, 80), (False, None)]

    def test_help_and_usage_errors_repeat(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as raised:
                main(["--help"])
            assert raised.value.code == 0
            assert capsys.readouterr().out.startswith(
                "usage: galdescent [-h] [--oracle] [--budget BUDGET] input\n")
            with pytest.raises(SystemExit) as raised:
                main(["a", "b"])
            assert raised.value.code == 2
            assert capsys.readouterr().err.endswith(
                "galdescent: error: unrecognized arguments: b\n")

    def test_console_script_stdin(self):
        text = (DOCUMENTS / "fixed_qi_twist.txt").read_text()
        proc = subprocess.run(
            [sys.executable, "-m", "galdescent.cli", "-"],
            input=text, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert "dimension: 1" in proc.stdout


# Fuzzing the documents: characters are inserted, deleted and duplicated, but
# no digit is created or removed and no two are joined, so every number in a
# mutated document is one of a golden document.  Mutating digits finds fields
# too large to build before any budget check, such as Cyclo(44) restricted
# from x^22 - t (refused since by the expansion bound) or GF(3^226) in a map
# (ROADMAP item 1), so digit mutations wait for the construction bound.
FUZZ_TEXTS = [(DOCUMENTS / f"{name}.txt").read_text() for name in DOC_NAMES]
FUZZ_INSERTED = sorted(set("".join(FUZZ_TEXTS) + "#|!'\"\t")
                       - set("0123456789"))
FUZZ_BUDGET = 20_000


def _between_digits(text, i):
    """Whether the characters on both sides of the gap before ``text[i]``
    are digits."""
    return text[i - 1:i].isdigit() and text[i:i + 1].isdigit()


if given is not None:
    @st.composite
    def mutated_documents(draw):
        text = draw(st.sampled_from(FUZZ_TEXTS))
        for _ in range(draw(st.integers(1, 4))):
            i = draw(st.integers(0, len(text)))
            kind = draw(st.sampled_from(["insert", "delete", "duplicate"]))
            if kind == "insert":
                c = draw(st.sampled_from(FUZZ_INSERTED))
                if not _between_digits(text, i):
                    text = text[:i] + c + text[i:]
            elif i < len(text) and not text[i].isdigit():
                if kind == "duplicate":
                    text = text[:i + 1] + text[i:]
                elif not _between_digits(text[:i] + text[i + 1:], i):
                    text = text[:i] + text[i + 1:]
        return text

    class TestFuzz:
        @settings(derandomize=True, max_examples=300, deadline=None, database=None)
        @given(mutated_documents(), st.booleans())
        def test_every_mutated_document_ends_in_a_diagnostic(self, text, oracle):
            try:
                document = parse(text)
            except ParseError as error:
                assert isinstance(error.diagnostic, Diagnostic)
                return
            report, diagnostics, code = run(document, oracle=oracle, budget=FUZZ_BUDGET)
            assert code in (0, 1, 2, 3)
            if code:
                assert report == ""
                assert [type(d) for d in diagnostics] == [Diagnostic]
            else:
                assert diagnostics == []
