"""End-to-end benchmark of the galdescent CLI.

    python3 perfbench/run.py --workload {golden,groebner,points,algebra}
                             --seed N --seconds S --trace {0,1}

One process, one thread, one caller in a closed loop: each document is fed
to ``galdescent.cli.main`` on stdin as soon as the previous report is back.
Every report is compared with its expected exit code and stdout.

With ``--trace 0`` the run repeats passes over all documents (in a seeded
order) for about S seconds and reports the end-to-end metrics.  With
``--trace 1`` it makes one untraced and one traced pass, whatever S is, and
reports the per-layer metrics of the traced pass; spans are written to
``perfbench/out/``.  The last line of stdout is the JSON result.
"""

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import hostclock
import tracer
import workloads

SETUP_PROBES = 11
OUT_DIR = workloads.BENCH_DIR / "out"

# (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("doc_geomean_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
]


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing library or inputs)."""


def load_cli():
    if not (workloads.SRC_DIR / "galdescent" / "cli.py").is_file():
        raise BenchmarkError(f"no galdescent sources under {workloads.SRC_DIR}")
    if not workloads.DOCUMENTS_DIR.is_dir() or not workloads.GOLDEN_DIR.is_dir():
        raise BenchmarkError("tests/documents or tests/golden is missing")
    if str(workloads.SRC_DIR) not in sys.path:
        sys.path.insert(0, str(workloads.SRC_DIR))
    from galdescent import cli

    return cli


def invoke(cli, case):
    """(exit code, stdout, stderr) of one CLI run on the case's text."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(case.text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case.argv)
    except Exception as error:  # a traceback is a failed report, not a crash
        code = f"uncaught {type(error).__name__}: {error}"
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


class Run:
    """Timings and failures of one benchmark run."""

    def __init__(self, cli, cases, expected, rng):
        self.cli = cli
        self.cases = cases
        self.expected = expected
        self.rng = rng
        self.attempted = 0
        self.failures = []

    def one_pass(self, timer):
        """Run every case once in a seeded order, ``timer(call)`` returning
        (result, seconds); returns key -> seconds."""
        order = list(self.cases)
        self.rng.shuffle(order)
        times = {}
        for case in order:
            result, times[case.key] = timer(lambda: invoke(self.cli, case))
            self.check(case.key, result)
        return times

    def check(self, key, result):
        code, stdout, stderr = result
        want = self.expected.get(key)
        if want is None:
            self.record(key, "no expected report")
        elif (code, stdout) != want:
            self.record(key, f"exit {code} (want {want[0]}), stdout "
                             f"{'matches' if stdout == want[1] else 'differs'}"
                             f"{', stderr: ' + stderr.strip() if stderr else ''}")
        else:
            self.record(key, None)

    def record(self, key, problem):
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{key}: {problem}")


def wall_timer(call):
    start = perf_counter()
    result = call()
    return result, perf_counter() - start


def measure_setup(workload, seed):
    """Median over fresh processes of import + read + parse time."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(workloads.BENCH_DIR / "setup_probe.py"),
             workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


# -- sympy cross-check ------------------------------------------------------------

def _normalized(terms, prime):
    """Monic term set of a polynomial given as (exponents, coefficient)
    pairs, the leading pair first."""
    lead = terms[0][1]
    if prime is None:
        return frozenset((e, Fraction(str(c)) / Fraction(str(lead))) for e, c in terms)
    inv = pow(int(lead) % prime, -1, prime)
    return frozenset((e, int(c) * inv % prime) for e, c in terms)


def sympy_cross_check(cli, cases, run):
    """Compare the reduced grevlex bases galdescent computes for the Katsura
    documents with sympy's; each comparison counts as one attempted check.
    Skipped when sympy is not installed."""
    katsura = {c.name: c for c in cases if c.name in workloads.KATSURA}
    if not katsura:
        return "sympy cross-check: no Katsura documents"
    try:
        import sympy
    except ImportError:
        return "sympy cross-check: skipped, sympy is not installed"
    from galdescent.groebner import GREVLEX
    from galdescent.parser import parse

    for name, case in sorted(katsura.items()):
        prime = workloads.KATSURA[name]
        document = parse(case.text)
        workspace = cli.Workspace(10 ** 6)
        for statement in document.declarations:
            workspace.build(statement)
        algebra = workspace.algebras[document.command.name]
        ours = {_normalized(sorted(((e, c.value) for e, c in g.terms.items()),
                                   key=lambda t: GREVLEX.key(t[0]), reverse=True),
                            prime)
                for g in algebra.relations.groebner()}
        gens = sympy.symbols(algebra.variables)
        polys = [sympy.sympify(r.replace("^", "**"),
                               locals=dict(zip(algebra.variables, gens)))
                 for r in workloads.relations_of(case.text)]
        options = {"modulus": prime} if prime else {"domain": "QQ"}
        basis = sympy.groebner(polys, *gens, order="grevlex", **options)
        theirs = {_normalized(p.terms(order="grevlex"), prime) for p in basis.polys}
        run.record(f"{name}:sympy",
                   None if ours == theirs else "reduced basis differs from sympy's")
    return f"sympy cross-check: {len(katsura)} Katsura bases compared"


# -- the run ------------------------------------------------------------------------

def timed_passes(run, workload, seed, seconds):
    """Passes until about ``seconds`` have gone: a new pass starts only if it
    is expected to end in time.  Returns (end-to-end values, lines)."""
    passes, raw_times = [], []
    start = perf_counter()
    with hostclock.HostClock() as clock:
        while True:
            raw_before = clock.raw_seconds
            passes.append(run.one_pass(clock.time))
            raw_times.append(clock.raw_seconds - raw_before)
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_times = [sum(p.values()) for p in passes]
    per_case = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    values = {
        "setup_s": measure_setup(workload, seed),
        "wall_s": statistics.median(pass_times),
        "doc_geomean_ms": math.exp(statistics.fmean(
            math.log(t * 1000) for t in per_case.values())),
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [f"wall_s: median of {len(passes)} passes "
             f"(min {min(pass_times):.3f}, max {max(pass_times):.3f} reference s; "
             f"uncorrected median {statistics.median(raw_times):.3f} s)"]
    for key, t in sorted(per_case.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {key}: median {t * 1000:.1f} reference ms over {len(passes)} runs")
    return values, lines


def traced_pass(run, workload, seed):
    """One untraced pass, then one traced pass whose spans are written to
    OUT_DIR; both timed uncorrected.  Returns (per-layer values, lines)."""
    untraced = sum(run.one_pass(wall_timer).values())
    trace = tracer.Tracer()
    trace.install()
    try:
        times = run.one_pass(trace.timer)
    finally:
        trace.remove()
    traced = sum(times.values())
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    trace.dump(path, list(times))
    lines = [f"untraced pass {untraced:.3f} s, traced pass {traced:.3f} s; "
             f"spans in {path.relative_to(workloads.ROOT)}"]
    _, per_invocation = trace.self_times()
    for key, layers in sorted(zip(times, per_invocation)):
        layers.pop(tracer.DOCUMENT, None)
        for layer, self_s in layers.most_common(1):
            lines.append(f"  {key}: largest self time {layer} {self_s:.3f} s")
    return trace.metrics(untraced, traced), lines


def run_benchmark(workload, seed, seconds, trace, only=None, expected=None):
    """Returns (human-readable lines, result object).  ``only`` restricts the
    run to the named documents; ``expected`` replaces the expected reports."""
    cli = load_cli()
    cases = workloads.cases(workload, seed)
    if only is not None:
        cases = [c for c in cases if c.name in only]
    if expected is None:
        expected = workloads.expected_reports()
    run = Run(cli, cases, expected, random.Random(seed))
    lines = [f"workload {workload}, seed {seed}: {len(cases)} reports per pass"]
    if trace:
        values, more = traced_pass(run, workload, seed)
        units = dict(tracer.PER_LAYER)
    else:
        values, more = timed_passes(run, workload, seed, seconds)
        units = dict(END_TO_END)
    lines.extend(more)
    lines.append(sympy_cross_check(cli, cases, run))
    failed = len(run.failures)
    values["pass_ratio"] = 1 - failed / run.attempted
    lines.extend(f"FAIL {message}" for message in run.failures)
    lines.append(f"fail_ratio: {failed}/{run.attempted}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return lines, result


def print_result(lines, result):
    """The human-readable lines, then the JSON result as the last line."""
    for line in lines:
        print(line)
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result = run_benchmark(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except (BenchmarkError, OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print_result(lines, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
