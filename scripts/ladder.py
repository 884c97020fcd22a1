"""The scale ladder: CLI runs, each of one document in one mode (plain or
``--oracle``).  The Groebner rows run ``validate`` on Katsura-4 to
Katsura-7 over GF(32003), Katsura-4 to Katsura-6 over QQ and the cyclic-5
system over QQ (``tests/large/validate_cyclic5_qq.txt``).  The scan rows
run the finite-field point oracles with ``--oracle``: the circle restricted
from GF(5^2) to GF(5) and the cyclic descent over GF(3^3) (the benchmark's
``circle_gf25_to_gf5`` and ``cyclic_gf27`` texts) and the ``tests/large``
documents ``restrict_xyz_gf9``, ``descend_swap_gf961``,
``descend_cyclic_gf125``, ``fixed_cyclic_gf125`` and
``descend_swap_gf529``.  The row ``descend_cyclic_cyclo7`` runs that
``tests/large`` document with ``--oracle``, as its report was rendered: a
cyclic descent over Cyclo(7), whose Groebner bases and membership tests
run over the extension field.  The row ``fixed_shift_gf4096`` runs that
``tests/large`` document plain, as its report was rendered: its field,
GF(2^12), is too large to tabulate (see :mod:`galdescent.extension`), so it
times the polynomial product kernel.  The splitting rows
run the circle restricted from Cyclo(5), Cyclo(7), Cyclo(11) and Cyclo(13)
to QQ with ``--oracle`` (Cyclo(7) and Cyclo(11) are the ``tests/large``
documents), whose oracle is the etale splitting.  The row
``restrict_x2_t_cyclo101_qq`` runs that ``tests/large`` document plain, as
its report was rendered: the Weil expansion of ``x^2 - t`` from Cyclo(101)
to QQ, 5050 terms split into 100 components.  The group rows run the
``tests/large`` documents ``validate_cyclo101_qq``,
``validate_cyclo1000_qq``, ``validate_group_gf3_42`` and
``validate_group_gf3_97`` plain, as their reports were rendered: the
automorphism groups of Cyclo(101) and Cyclo(1000) over QQ and the Frobenius
groups of GF(3^42) and GF(3^97).

Each row records its mode, the exit code, the sha256 of stdout, the
reduction steps the command spent (``Budget.spent``) and its time in
reference seconds (``perfbench/hostclock.py``): the median of 3 runs when
the first run takes under 2 s, that one run otherwise.  Runs are in process, through
``galdescent.cli.main`` on stdin, by the benchmark's own runner
(``perfbench/run.py``'s ``invoke``).

    python3 scripts/ladder.py --write BENCH_<n>.json  # time every row, write the table
    python3 scripts/ladder.py --check                 # every row against the table

``--check`` runs each row once and compares its exit code, digest and steps
with the newest ``BENCH_<n>.json`` at the repository root; it pins no time.
It prints one line per mismatch and exits 1 if there is any.
"""

import argparse
import hashlib
import json
import pathlib
import platform
import re
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hostclock  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    ORACLE, PLAIN, Case, _circle_restriction, _cyclic_descent, _katsura)

from galdescent import cli  # noqa: E402

REPEAT_BELOW_S = 2.0
RUNS = 3


def _large(name):
    return (ROOT / "tests" / "large" / f"{name}.txt").read_text(encoding="utf-8")


def _rows():
    """name -> (mode, document text), in ladder order."""
    rows = {f"katsura{n}_fp": (PLAIN, _katsura(n, "GF(32003^1)")) for n in range(4, 8)}
    rows.update((f"katsura{n}_qq", (PLAIN, _katsura(n, "QQ"))) for n in range(4, 7))
    rows["validate_cyclic5_qq"] = (PLAIN, _large("validate_cyclic5_qq"))
    rows["circle_gf25_to_gf5"] = (ORACLE, _circle_restriction("GF(5^2)", "GF(5^1)"))
    rows.update((name, (ORACLE, _large(name)))
                for name in ("restrict_xyz_gf9", "descend_swap_gf961",
                             "descend_cyclic_gf125", "fixed_cyclic_gf125"))
    rows["cyclic_gf27"] = (ORACLE, _cyclic_descent(3))
    rows["descend_swap_gf529"] = (ORACLE, _large("descend_swap_gf529"))
    rows["descend_cyclic_cyclo7"] = (ORACLE, _large("descend_cyclic_cyclo7"))
    rows["fixed_shift_gf4096"] = (PLAIN, _large("fixed_shift_gf4096"))
    rows["circle_cyclo5_to_qq"] = (ORACLE, _circle_restriction("Cyclo(5)", "QQ"))
    rows.update((name, (ORACLE, _large(name)))
                for name in ("restrict_circle_cyclo7", "restrict_circle_cyclo11"))
    rows["circle_cyclo13_to_qq"] = (ORACLE, _circle_restriction("Cyclo(13)", "QQ"))
    rows["restrict_x2_t_cyclo101_qq"] = (PLAIN, _large("restrict_x2_t_cyclo101_qq"))
    rows.update((name, (PLAIN, _large(name)))
                for name in ("validate_cyclo101_qq", "validate_cyclo1000_qq",
                             "validate_group_gf3_42", "validate_group_gf3_97"))
    return rows


ROWS = _rows()


class _Recorded(cli.Budget):
    """A ``Budget`` that keeps the last one made, which is the command's."""

    last = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _Recorded.last = self


def run_row(name):
    """(exit code, stdout sha256, steps spent) of one CLI run of a row; the
    steps are None when the command ends before it makes its ``Budget``."""
    _Recorded.last = None
    saved_budget, cli.Budget = cli.Budget, _Recorded
    try:
        code, out, _ = run.invoke(cli, Case(name, *ROWS[name]))
    finally:
        cli.Budget = saved_budget
    digest = hashlib.sha256(out.encode()).hexdigest()
    return code, digest, None if _Recorded.last is None else _Recorded.last.spent


def measure():
    """Every row of the table, timed."""
    rows = []
    with hostclock.HostClock() as clock:
        for name in ROWS:
            result, seconds = clock.time(lambda: run_row(name))
            times = [seconds]
            if seconds < REPEAT_BELOW_S:
                for _ in range(RUNS - 1):
                    again, seconds = clock.time(lambda: run_row(name))
                    if again != result:
                        raise RuntimeError(f"{name}: a rerun reported {again}, not {result}")
                    times.append(seconds)
            code, digest, steps = result
            rows.append({"name": name, "mode": ROWS[name][0], "code": code,
                         "stdout_sha256": digest, "steps": steps, "runs": len(times),
                         "seconds": round(statistics.median(times), 5)})
    return rows


def committed_tables():
    """The rows of every ``BENCH_<n>.json`` at the repository root, oldest
    (smallest n) first."""
    tables = sorted((int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
                    if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name)))
    if not tables:
        raise FileNotFoundError(f"no BENCH_<n>.json under {ROOT}")
    return [json.loads(path.read_text(encoding="utf-8"))["rows"] for _, path in tables]


def check(rows):
    """One line per row of ``rows`` (table entries) whose exit code, digest
    or steps differ from a fresh run."""
    problems = []
    for row in rows:
        want = (row["code"], row["stdout_sha256"], row["steps"])
        got = run_row(row["name"])
        if got != want:
            problems.append(f"{row['name']}: exit code, sha256, steps {got}, want {want}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", metavar="PATH", type=pathlib.Path,
                        help="time the rows and write the table to PATH")
    action.add_argument("--check", action="store_true",
                        help="compare the rows with the newest committed table")
    args = parser.parse_args(argv)
    if args.write:
        table = {"python": platform.python_version(),
                 "reference_kernel_s": hostclock.REFERENCE_KERNEL_S,
                 "rows": measure()}
        args.write.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
        for row in table["rows"]:
            print(f"{row['name']:23} {row['mode']:6} exit {row['code']}  "
                  f"steps {row['steps']!s:>7}  "
                  f"{row['seconds']:.4f} s ({row['runs']} runs)")
        return 0
    table = committed_tables()[-1]
    names = [row["name"] for row in table]
    if names != list(ROWS):
        print(f"the table lists the rows {names}, not {list(ROWS)}")
        return 1
    problems = check(table)
    for line in problems:
        print(line)
    print(f"{len(table) - len(problems)} of {len(table)} rows match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
