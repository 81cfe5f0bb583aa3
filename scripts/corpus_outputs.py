#!/usr/bin/env python3
"""Print the CLI's JSON output, with every `timings` field removed, for each
golden invocation of tests/test_golden.py and for each case of the
benchmark corpus (perfbench/cases.py, WORKLOADS and FULL) at seeds 0 to 3.
Each distinct invocation (argv and input) prints one line, its label and
its output. A change meant to leave every output alone is then checked by
one diff:

    PYTHONPATH=src python3 scripts/corpus_outputs.py > before.txt
    (change the program)
    PYTHONPATH=src python3 scripts/corpus_outputs.py > after.txt
    diff before.txt after.txt

tests/test_scripts.py compares the output with tests/corpus_outputs.txt.
"""

import argparse
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

import cases  # noqa: E402
from test_golden import INVOCATIONS, _strip_timings  # noqa: E402

from anosov.cli import main as cli_main  # noqa: E402

SEEDS = range(4)


def invocations():
    """(label, argv, input text) of every golden invocation, then of every
    benchmark case at each seed."""
    for name, (argv, stdin) in INVOCATIONS.items():
        yield name, argv, "" if stdin is None else json.dumps(stdin)
    for corpus in (cases.WORKLOADS, cases.FULL):
        for workload, make_cases in corpus.items():
            for case in make_cases():
                for seed in SEEDS:
                    label = f"{workload} {case.command} {case.case_id} seed {seed}"
                    yield label, case.argv(), json.dumps(case.input_obj(seed))


def run(argv, text: str):
    """The exit code and the output, parsed, with its timings removed."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        code = cli_main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved
    return code, _strip_timings(json.loads(out)) if out else None


def main() -> None:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    seen = set()
    for label, argv, text in invocations():
        key = (tuple(argv), text)
        if key in seen:
            continue
        seen.add(key)
        code, out = run(argv, text)
        print(f"{label}\t{code}\t{json.dumps(out)}")


if __name__ == "__main__":
    main()
