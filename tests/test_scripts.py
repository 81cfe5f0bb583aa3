"""Smoke tests for `scripts/`: each runs as its own process with the source
tree on PYTHONPATH, exits 0 and prints its characteristic line."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from anosov.corpus import DEMO_NAMES

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_demos_prints_json_reports():
    out = run_script("run_demos.py")
    parts = re.split(r"^=== (\w+) ===$", out, flags=re.M)
    names, bodies = parts[1::2], parts[2::2]
    assert names == list(DEMO_NAMES)
    for name, body in zip(names, bodies):
        assert json.loads(body)["name"] == name


def test_boundary_sweep_prints_table():
    out = run_script("boundary_sweep.py")
    assert out.splitlines()[0].split() == ["m\\c", "1", "2", "3", "4"]
    assert "0 disagreements" in out


def test_witness_gallery_reverifies():
    lines = run_script("witness_gallery.py").splitlines()
    assert lines and all("reverified=True" in line for line in lines)


def test_corpus_outputs_prints_every_golden_output():
    """Every golden output, and every line of tests/corpus_outputs.txt, the
    script's recorded output: a change meant to leave every output alone
    leaves it byte for byte. A change meant to alter outputs records it
    again, with `PYTHONPATH=src python3 scripts/corpus_outputs.py`."""
    out = run_script("corpus_outputs.py")
    lines = [line.split("\t") for line in out.splitlines()]
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    outputs = {label: out for label, code, out in lines}
    assert len(outputs) == len(lines) > len(golden)
    assert all(code == "0" for _, code, _ in lines)
    assert all(outputs[name] == json.dumps(golden[name]) for name in golden)
    recorded = (ROOT / "tests" / "corpus_outputs.txt").read_text().splitlines()
    assert out.splitlines() == recorded and len(recorded) == 250
