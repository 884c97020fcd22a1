"""Regenerate perfbench/expected.json: the exit code and stdout of every
(document, mode) pair that no golden file covers, from the unvaried texts.

    python3 perfbench/make_expected.py

Run it only on a commit whose reports are known to be right; the benchmark
then holds every later commit to them.
"""

import json

import run
import workloads


def main():
    cli = run.load_cli()
    golden = workloads.golden_reports()
    expected = {}
    for workload in workloads.WORKLOADS:
        for name, text, modes in workloads.canonical_documents(workload):
            for mode in modes:
                case = workloads.Case(name, mode, text)
                if case.key in golden:
                    continue
                code, stdout, _ = run.invoke(cli, case)
                expected[case.key] = {"code": code, "stdout": stdout}
                print(f"{case.key}: exit {code}", flush=True)
    with open(workloads.EXPECTED_FILE, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
