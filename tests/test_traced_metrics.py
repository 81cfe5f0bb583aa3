"""The benchmark's tracer reads the hyperbolicity layer by its public names.

perfbench/spans.py and perfbench/cases.py are imported read-only, as
scripts/corpus_outputs.py imports them, and the tracer is installed around
one case of the `witness` workload.
"""

import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "perfbench"))

import cases  # noqa: E402
from spans import Tracer  # noqa: E402

from anosov import cli  # noqa: E402


def test_witness_case_traces_the_one_product_builder(monkeypatch, capsys):
    case = cases.WORKLOADS["witness"]()[1]  # 3·ρ3 at c = 2, tensor shortcut
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(case.input_obj(17))))
    tracer = Tracer()
    with tracer:
        code = cli.main(case.argv())  # looked up on the module, so the tracer wraps it
    assert code == 0
    assert cases.fingerprint(case, json.loads(capsys.readouterr().out)) == case.expected()
    keys = {span[0] for span in tracer.spans}
    assert {"cli.main", "witness.verify_witness", "intpoly.eig_product_poly"} <= keys
    assert not {"hyper.is_integer_like", "hyper.is_c_hyperbolic_matrix"} & set(tracer.targets())
