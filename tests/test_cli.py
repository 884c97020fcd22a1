import inspect
import json
import pathlib
import subprocess
import sys

import pytest

from galdescent import affine, cli, flat, groebner
from galdescent.cli import main, run
from galdescent.errors import Budget
from galdescent.extension import ExtensionField
from galdescent.linalg import Matrix
from galdescent.parser import ParseError, parse

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
        # take 30 Groebner steps in all, and the oracle takes none
        document = parse((DOCUMENTS / "descend_swap_f9.txt").read_text())
        _, diagnostics, code = run(document, oracle=True, budget=30)
        assert code == 0 and not diagnostics
        _, diagnostics, code = run(document, oracle=True, budget=29)
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

        monkeypatch.setattr(Matrix, "__mul__", counted)
        _, _, code = run_document("amitsur_f9", oracle=oracle)
        assert code == 0
        # d^1 d^0, d^2 d^1 and d^3 d^2 for rmax=3 over GF(9), dim B = 2
        assert shapes == [(4, 2, 1), (8, 4, 2), (16, 8, 4)]


class TestLarge:
    def test_cyclo7_restriction_matches_expected(self):
        # the etale splitting oracle builds Cyclo(7) (x) Cyclo(7), of
        # dimension 36; the expected report comes from a FiniteAlgebra.verify
        # that checked every basis triple
        text = (LARGE / "restrict_circle_cyclo7.txt").read_text()
        report, diagnostics, code = run(parse(text), oracle=True)
        expected = (LARGE / "restrict_circle_cyclo7.expected").read_text()
        assert (code, diagnostics, report) == (0, [], expected)


class TestBudget:
    BOUNDED = {
        "descend_swap_f9": {"descend_algebra", "derive_point_action", "count_affine_points"},
        "restrict_gm_f4": {"count_affine_points", "conjugate_product_check"},
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
                         "count_affine_points", "conjugate_product_check",
                         "count_fixed_vectors", "amitsur_complex"):
            monkeypatch.setattr(cli, function, recorded(getattr(cli, function)))
        _, _, code = run_document(name, oracle=True)
        assert code == 0
        assert {function for function, _ in seen} == self.BOUNDED[name]
        budgets = {id(budget) for _, budget in seen}
        assert len(budgets) == 1 and isinstance(seen[0][1], Budget)

    def test_tensor_power_refused_before_building(self, monkeypatch):
        def refuse(*factors):
            raise AssertionError("tensor power built before the budget check")

        monkeypatch.setattr(flat, "kron", refuse)
        text = ("field F3 = GF(3^1)\n"
                "field F9 = GF(3^2)\n"
                "map f = F3 -> F9\n"
                "amitsur f rmax=12\n")
        report, diagnostics, code = run(parse(text))
        assert (report, code) == ("", 3)
        assert diagnostics[0].render() == (
            "error[budget-exceeded] line 4, col 1: dim B^(x)13 = 8192 exceeds cap 4096")

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

        monkeypatch.setattr(flat, "kron", refuse)
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

    def test_console_script_stdin(self):
        text = (DOCUMENTS / "fixed_qi_twist.txt").read_text()
        proc = subprocess.run(
            [sys.executable, "-m", "galdescent.cli", "-"],
            input=text, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert "dimension: 1" in proc.stdout
