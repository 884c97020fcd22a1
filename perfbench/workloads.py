"""Benchmark inputs: the documents of each workload, their seeded variants,
and the expected report of every (document, mode) pair.

A seed may change only what leaves a report byte-identical: the order in
which documents run, the order of the relations of an ``algebra``
declaration, and (for ``validate`` and ``descend`` documents) a nonzero
scalar factor on each relation.  ``restrict`` prints its unreduced
components, so its relations are reordered but never scaled.

This module does not import galdescent, so that the set-up probe can time
the library import on its own.
"""

import json
import pathlib
import random
import re

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
DOCUMENTS_DIR = ROOT / "tests" / "documents"
GOLDEN_DIR = ROOT / "tests" / "golden"
EXPECTED_FILE = BENCH_DIR / "expected.json"

PLAIN, ORACLE = "plain", "oracle"
MODES = (PLAIN, ORACLE)

# The mode in which tests/test_cli.py renders each golden file: these five
# documents are rendered with --oracle, the other seven without.
GOLDEN_ORACLE = {"descend_canonical_line", "descend_swap_f9", "restrict_gm_f4",
                 "fixed_f9_swap", "restrict_sqrt_i"}


def _katsura(n, field):
    """Katsura-n: u0 + 2(u1 + ... + un) = 1 and, for m < n,
    sum over l in [-n, n] of u_|l| u_|m-l| = u_m."""
    u = [f"u{i}" for i in range(n + 1)]
    relations = ["u0 + " + " + ".join(f"2*{v}" for v in u[1:]) + " - 1"]
    for m in range(n):
        terms = [f"{u[abs(l)]}*{u[abs(m - l)]}" for l in range(-n, n + 1)
                 if abs(m - l) <= n]
        relations.append(" + ".join(terms) + f" - {u[m]}")
    return (f"field K = {field}\n"
            f"algebra A = K[{', '.join(u)}]/({', '.join(relations)})\n"
            "validate A\n")


def _cyclic_descent(p):
    return (f"field F = GF({p}^3)\n"
            "algebra A = F[x, y, z]/(x*y*z - 1)\n"
            "datum D on A : frob => { x -> y, y -> z, z -> x }"
            " : frob2 => { x -> z, y -> x, z -> y }\n"
            "descend D\n")


def _swap_descent(p):
    return (f"field F = GF({p}^2)\n"
            "algebra Gm = F[x, y]/(x*y - 1)\n"
            "datum D on Gm : frob => { x -> y, y -> x }\n"
            "descend D\n")


def _circle_restriction(upper, lower):
    return (f"field L = {lower}\n"
            f"field K = {upper}\n"
            "algebra C = K[x, y]/(x^2 + y^2 - 1)\n"
            "restrict C over K to L\n")


GENERATED = {
    "groebner": [
        ("katsura4_fp", _katsura(4, "GF(32003^1)"), (PLAIN,)),
        ("katsura4_qq", _katsura(4, "QQ"), (PLAIN,)),
        ("katsura5_fp", _katsura(5, "GF(32003^1)"), (PLAIN,)),
        ("katsura5_qq", _katsura(5, "QQ"), (PLAIN,)),
        ("cyclic_gf125", _cyclic_descent(5), (PLAIN,)),
    ],
    "points": [
        ("swap_gf169", _swap_descent(13), (ORACLE,)),
        ("swap_gf289", _swap_descent(17), (ORACLE,)),
        ("cyclic_gf27", _cyclic_descent(3), (ORACLE,)),
        ("circle_gf25_to_gf5", _circle_restriction("GF(5^2)", "GF(5^1)"), (ORACLE,)),
        ("fixed_swap3_gf25",
         "field F5 = GF(5^1)\n"
         "field F25 = GF(5^2)\n"
         "group G = Aut(F25/F5)\n"
         "module M on G dim 3 : frob => [[0, 1, 0], [1, 0, 0], [0, 0, 1]]\n"
         "fixed M\n", (ORACLE,)),
    ],
    "algebra": [
        ("circle_cyclo5_to_qq", _circle_restriction("Cyclo(5)", "QQ"), (ORACLE,)),
        ("circle_cyclo8_to_qq", _circle_restriction("Cyclo(8)", "QQ"), (ORACLE,)),
        ("amitsur_qq_x_cyclo4",
         "field Q0 = QQ\n"
         "field C4 = Cyclo(4)\n"
         "map f = Q0 -> Q0 x C4\n"
         "amitsur f rmax=4\n", (PLAIN,)),
        ("amitsur_gf3_gf9",
         "field F3 = GF(3^1)\n"
         "field F9 = GF(3^2)\n"
         "map f = F3 -> F9\n"
         "amitsur f rmax=7\n", (PLAIN,)),
    ],
}

WORKLOADS = ("golden",) + tuple(GENERATED)

# Katsura documents whose reduced bases are cross-checked against sympy:
# name -> characteristic of the coefficient field (None for QQ)
KATSURA = {"katsura4_fp": 32003, "katsura4_qq": None,
           "katsura5_fp": 32003, "katsura5_qq": None}


class Case:
    """One (document, mode) pair: the text the library receives and the
    report it must produce."""

    __slots__ = ("name", "mode", "text")

    def __init__(self, name, mode, text):
        self.name = name
        self.mode = mode
        self.text = text

    @property
    def key(self):
        return f"{self.name}:{self.mode}"

    @property
    def argv(self):
        return ["-", "--oracle"] if self.mode == ORACLE else ["-"]


def canonical_documents(workload):
    """(name, text, modes) of every document of a workload, unvaried."""
    if workload == "golden":
        return [(path.stem, path.read_text(encoding="utf-8"), MODES)
                for path in sorted(DOCUMENTS_DIR.glob("*.txt"))]
    return GENERATED[workload]


def cases(workload, seed):
    """The workload's cases with seed-varied texts, in canonical order."""
    rng = random.Random(seed)
    out = []
    for name, text, modes in canonical_documents(workload):
        varied = vary_document(text, rng)
        out.extend(Case(name, mode, varied) for mode in modes)
    return out


# -- seeded variation ----------------------------------------------------------

_ALGEBRA_RE = re.compile(r"^(algebra\s+\w+\s*=\s*(\w+)\s*\[[^\]]*\]\s*/\s*\()(.*)\)\s*$")
_FIELD_RE = re.compile(r"^field\s+(\w+)\s*=\s*(.*?)\s*$")


def _split_top_level(body):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i].strip())
            start = i + 1
    parts.append(body[start:].strip())
    return parts


def relations_of(text):
    """The relation texts of the first algebra declaration of a document."""
    for line in text.splitlines():
        match = _ALGEBRA_RE.match(line.split("#", 1)[0].strip())
        if match:
            return _split_top_level(match.group(3))
    return []


def _nonzero_scalar(ctor, rng):
    """A random nonzero element of the field ``ctor`` as document text."""
    gf = re.match(r"GF\((\d+)(?:\^(\d+))?", ctor)
    p = int(gf.group(1)) if gf else 0
    if gf and gf.group(2) in (None, "1"):
        return str(rng.randrange(1, p))
    if ctor == "QQ":
        return f"{rng.choice((-1, 1)) * rng.randrange(1, 10)}/{rng.randrange(1, 10)}"
    # an extension of degree >= 2, where a + b*t != 0 since a != 0
    a = rng.randrange(1, p) if p else rng.randrange(1, 10)
    b = rng.randrange(0, p) if p else rng.randrange(-9, 10)
    return f"({a} + {b}*t)" if b >= 0 else f"({a} - {-b}*t)"


def vary_document(text, rng):
    """Shuffle the relations of every algebra declaration and, unless the
    document's command is ``restrict``, scale each by a nonzero constant."""
    lines = text.splitlines()
    statements = [line.split("#", 1)[0].strip() for line in lines]
    command = [s for s in statements if s][-1].split()[0]
    fields = {}
    out = []
    for line, statement in zip(lines, statements):
        field_match = _FIELD_RE.match(statement)
        if field_match:
            fields[field_match.group(1)] = field_match.group(2)
        match = _ALGEBRA_RE.match(statement)
        if not match:
            out.append(line)
            continue
        head, field_name, body = match.groups()
        relations = _split_top_level(body)
        rng.shuffle(relations)
        if command != "restrict":
            relations = [f"{_nonzero_scalar(fields[field_name], rng)}*({r})"
                         for r in relations]
        out.append(head + ", ".join(relations) + ")")
    return "\n".join(out) + "\n"


# -- expected reports ------------------------------------------------------------

def golden_reports():
    """key -> (exit code, stdout) of the pairs that tests/golden covers."""
    return {f"{path.stem}:{ORACLE if path.stem in GOLDEN_ORACLE else PLAIN}":
            (0, path.read_text(encoding="utf-8"))
            for path in sorted(GOLDEN_DIR.glob("*.golden"))}


def expected_reports():
    """key -> (exit code, stdout) for every pair of every workload: the golden
    file where tests/test_cli.py renders the pair, else expected.json."""
    expected = {key: (entry["code"], entry["stdout"]) for key, entry in
                json.loads(EXPECTED_FILE.read_text(encoding="utf-8")).items()}
    expected.update(golden_reports())
    return expected
