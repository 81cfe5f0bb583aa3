"""Every module-level import in the library is used by its module; no module
but numfield, whose embeddings give the log-vector screen, names a
floating-point library, and numfield's make_field does not; numfield
neither factors nor counts real roots, and make_field loads no sympy; no
module imports sympy or mpmath when it is imported, so that the decision
path starts without them, and the hyperbolicity test, the witness search
and the empty-search report do not load them either; the witness of a
cyclotomic rotation loads no sympy; no module builds a representation's
full image list; and the Krylov minimal polynomial serves commutant
elements only, a field element being read through its characteristic
polynomial."""

import ast
import dataclasses
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from anosov import corpus
from anosov.fingrp import RationalRep
from conftest import benchmark_cases, rotation_rep

SRC = Path(__file__).resolve().parent.parent / "src" / "anosov"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
HEAVY = ("sympy", "mpmath")


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.extend((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names)
    return names


def _import_time_modules(tree: ast.Module) -> list[str]:
    """The absolute modules named by every import statement that runs when
    the module is imported: all of them outside function bodies."""
    modules, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            modules.extend(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return modules


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses: {unused}"


@pytest.mark.parametrize("module", [f"anosov.{p.stem}" for p in MODULES if p.stem != "numfield"])
def test_exact_modules_hold_no_mpmath(module):
    # every verdict path is exact: no floating-point library in it
    mod = importlib.import_module(module)
    assert "mpmath" not in vars(mod)
    assert "mpmath" not in mod.__loader__.get_source(module)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_heavy_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    heavy = [m for m in _import_time_modules(tree) if m.split(".")[0] in HEAVY]
    assert not heavy, f"{path.name} imports at module level: {heavy}"


# Permutation's own field of that name, the one `.images` read in the
# package: (module, enclosing class and function names) prefixes.
IMAGES_READERS = (("ratmat.py", "Permutation"),)


def _images_reads(tree: ast.Module) -> list[tuple]:
    """The enclosing class and function names of every `.images` attribute."""
    found = []

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Attribute) and node.attr == "images":
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(tree, ())
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_full_image_list_read_only_by_the_homomorphism_check(path):
    # every step after closure costs #generators or #classes, not |G|: a
    # representation offers no list of all |G| images, and no module reads
    # an `.images` attribute but Permutation's own
    assert not hasattr(RationalRep, "images")
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [(path.name, *scope) for scope in _images_reads(tree)]
    stray = [r for r in reads if not any(r[: len(a)] == a for a in IMAGES_READERS)]
    assert not stray, f"{path.name} reads .images in {stray}"


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a tree names: variables, attributes, definitions and
    imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname} - {None})
    return names


# The modules that take the Krylov minimal polynomial of commutant elements,
# and ratmat, which defines it
MIN_POLY_MODULES = ("ratmat.py", "repdec.py", "witness.py")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_field_elements_read_through_one_char_poly(path):
    names = _names(ast.parse(path.read_text(), filename=str(path)))
    if path.name not in MIN_POLY_MODULES:
        assert "matrix_min_poly" not in names


def test_hyper_reads_intpoly_through_public_names():
    # the eigenvalue-product polynomials have one builder, eig_product_poly
    tree = ast.parse((SRC / "hyper.py").read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "intpoly"
        for alias in node.names
    ]
    assert "eig_product_poly" in imported
    assert not [name for name in imported if name.startswith("_")]


def test_make_field_finds_no_roots():
    # the field's exact steps only; the embeddings wait for a log vector
    tree = ast.parse((SRC / "numfield.py").read_text())
    (make_field,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "make_field"]
    assert "mpmath" not in _names(make_field)


def test_numfield_neither_factors_nor_sturm_counts():
    # make_field reads irreducibility and the signature in closed form, and
    # refuses every other field shape before any factoring
    names = _names(ast.parse((SRC / "numfield.py").read_text()))
    assert not names & {"factor_over_Q", "is_irreducible", "real_root_count"}


# Builds the field of every Φ_d for d ≤ 60 and of every monic quadratic with
# coefficients in [−5, 5] in one fresh interpreter, then prints the heavy
# modules that were loaded.
FIELDS_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from anosov.intpoly import IntPoly, cyclotomic
from anosov.numfield import FieldError, make_field
for d in range(1, 61):
    make_field(cyclotomic(d))
for b in range(-5, 6):
    for c in range(-5, 6):
        try:
            make_field(IntPoly((c, b, 1)))
        except FieldError:
            pass
print([m for m in sys.argv[2:] if m in sys.modules])
"""


def test_make_field_loads_no_sympy():
    proc = subprocess.run(
        [sys.executable, "-c", FIELDS_CHILD, str(SRC.parent), *HEAVY], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs argv lists from stdin through the CLI in one fresh interpreter and
# prints their outputs, then the heavy modules that were loaded.
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from anosov.cli import main
outputs = []
for argv, text in json.load(sys.stdin):
    sys.stdin, buf = io.StringIO(text), io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    outputs.append([rc, buf.getvalue()])
print(json.dumps({"outputs": outputs, "loaded": [m for m in sys.argv[2:] if m in sys.modules]}))
"""


def test_decision_path_loads_no_sympy_or_mpmath():
    cases = benchmark_cases()
    corpus = cases.FULL["isotypic"]() + cases.FULL["closure"]()
    runs = []
    for case in corpus:
        for seed in (0, 1):
            text = json.dumps(case.input_obj(seed))
            for command in ("decide", "decompose", "porteous"):
                runs.append(((case, command), [[command, "-"], text]))
    runs.append((None, [["demo", "q8"], ""]))
    runs.append((None, [["hall-basis", "--r", "3", "--class", "6"], ""]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC.parent), *HEAVY],
        input=json.dumps([run for _, run in runs]), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []
    for (key, _), (rc, out) in zip(runs, result["outputs"]):
        assert rc == 0
        if key is None:
            continue
        case, command = key
        obj = json.loads(out)
        if command == "decompose":
            rows = sorted((p["dimension"], p["multiplicity"], p["r_components"]) for p in obj)
            assert rows == sorted(case.components), case.case_id
        else:
            flat = case if command == "decide" else dataclasses.replace(case, c=1)
            assert cases.fingerprint(flat, obj) == flat.expected(), (case.case_id, command)


def _input_text(rep) -> str:
    """The CLI input for a representation: its group's generators and their
    images."""
    return json.dumps(
        {
            "generators": [m.to_json_obj() for m in rep.group.gen_matrices],
            "rep_images": [m.to_json_obj() for m in rep.gen_images],
        }
    )


# The hyperbolicity test, the witness search and the empty-search report run
# in integer arithmetic: each run, alone in a fresh interpreter, loads
# neither sympy nor mpmath.
@pytest.mark.parametrize(
    "argv, rep, key",
    [
        (["decide", "--witness", "--class", "2", "-"], corpus.m_rho3(3), "witness"),
        (["decide", "--witness", "--class", "2", "-"], corpus.torus_rep(3), "witness"),
        (["no-cert", "--class", "2", "--height-bound", "1", "-"], corpus.m_rho3(2), "candidates_screened"),
    ],
    ids=["witness-3rho3", "witness-3-torus", "no-cert-2rho3"],
)
def test_witness_and_no_cert_load_no_sympy_or_mpmath(argv, rep, key):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC.parent), *HEAVY],
        input=json.dumps([[argv, _input_text(rep)]]), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []
    ((rc, out),) = result["outputs"]
    assert rc == 0 and key in json.loads(out)


# A cyclotomic rotation's minimal polynomials are cyclotomic, which
# factor_over_Q recognises without Zassenhaus: each run, alone in a fresh
# interpreter, loads no sympy. mpmath is the unit search's log screen.
@pytest.mark.parametrize(
    "argv, rep",
    [
        (["decide", "--witness", "--class", "1", "-"], corpus.c5_rep()),
        (["decide", "--witness", "--class", "1", "-"], rotation_rep(8)),
        (["demo", "c5"], None),
    ],
    ids=["witness-c5", "witness-c8", "demo-c5"],
)
def test_cyclotomic_witness_loads_no_sympy(argv, rep):
    text = _input_text(rep) if rep else ""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC.parent), "sympy"],
        input=json.dumps([[argv, text]]), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == []
    ((rc, out),) = result["outputs"]
    assert rc == 0 and '"admits_anosov": true' in out
