import json
import time

import pytest

from anosov import cli, freenilp, numfield, ratmat
from anosov.cli import SUBCOMMANDS, build_parser, main, parse_args
from anosov.intpoly import cyclotomic
from anosov.ratmat import RatMatrix
from anosov.numfield import MAX_LATTICE_CANDIDATES

D3_INPUT = {
    "generators": [[["0", "-1"], ["1", "-1"]], [["0", "-1"], ["-1", "0"]]],
    "class": 1,
}
# 2·ρ3 at c = 1: YES, with a witness
TWO_RHO3_INPUT = {
    **D3_INPUT,
    "rep_images": [
        [["0", "-1", "0", "0"], ["1", "-1", "0", "0"], ["0", "0", "0", "-1"], ["0", "0", "1", "-1"]],
        [["0", "-1", "0", "0"], ["-1", "0", "0", "0"], ["0", "0", "0", "-1"], ["0", "0", "-1", "0"]],
    ],
}


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_input(tmp_path, obj, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_decide_verdict_json(tmp_path, capsys):
    path = write_input(tmp_path, D3_INPUT)
    code, out, _ = run(["decide", path], capsys)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["admits_anosov"] is False
    assert list(verdict)[:3] == ["admits_anosov", "class_c", "components"]


def test_decide_with_witness_flag(tmp_path, capsys):
    path = write_input(tmp_path, TWO_RHO3_INPUT)
    code, out, _ = run(["decide", path, "--witness"], capsys)
    verdict = json.loads(out)
    assert code == 0 and verdict["admits_anosov"] is True
    assert verdict["witness"]["integer_like"] is True


@pytest.mark.parametrize(
    "flags, stages",
    [([], ["decompose_s"]), (["--witness"], ["decompose_s", "witness_s"])],
    ids=["decide", "witness"],
)
def test_decide_timings_count_ingestion(tmp_path, capsys, monkeypatch, flags, stages):
    """decide times ingestion (input parse, closure and homomorphism check)
    as ingest_s, and total_s runs from before ingestion to the verdict."""
    load = cli._load_rep

    def slow_load(args):
        loaded = load(args)
        # ingestion that takes at least 50 ms
        time.sleep(0.05)
        return loaded

    monkeypatch.setattr(cli, "_load_rep", slow_load)
    path = write_input(tmp_path, TWO_RHO3_INPUT)
    code, out, _ = run(["decide", path, *flags], capsys)
    timings = json.loads(out)["timings"]
    assert code == 0 and list(timings) == ["ingest_s", *stages, "total_s"]
    assert timings["ingest_s"] >= 0.05
    assert timings["total_s"] >= sum(timings[k] for k in ["ingest_s", *stages]) - 1e-5


def test_decide_solvable_metadata(tmp_path, capsys):
    path = write_input(tmp_path, D3_INPUT)
    code, out, _ = run(["decide", path, "--solvable", "3", "--class", "1"], capsys)
    assert code == 0
    assert json.loads(out)["model"]["d"] == 3
    # with --witness, the model is added to the verdict and witness asked for
    path = write_input(tmp_path, TWO_RHO3_INPUT)
    code, out, _ = run(["decide", path, "--witness", "--solvable", "3"], capsys)
    verdict = json.loads(out)
    assert code == 0 and verdict["model"]["d"] == 3
    assert verdict["witness_status"] == "attached" and verdict["witness"]["integer_like"] is True


def test_porteous_and_decompose(tmp_path, capsys):
    path = write_input(tmp_path, D3_INPUT)
    code, out, _ = run(["porteous", path], capsys)
    assert code == 0 and json.loads(out)["porteous_agrees"] is True
    code, out, _ = run(["decompose", path], capsys)
    report = json.loads(out)
    assert code == 0 and report[0]["dim_E"] == 1


def test_units_subcommand(capsys):
    code, out, _ = run(["units", "--sqrt", "2", "--class", "1", "--bound", "12"], capsys)
    result = json.loads(out)
    assert code == 0 and result["found"] is True
    assert result["unit"]["coords"] == ["1", "1"]
    code, out, _ = run(["units", "--zeta", "5", "--class", "2", "--bound", "12"], capsys)
    assert code == 0 and json.loads(out)["found"] is False


def test_units_json_input(tmp_path, capsys):
    path = write_input(tmp_path, {"field": "zeta 5", "c": 1, "bound": 10})
    code, out, _ = run(["units", path], capsys)
    result = json.loads(out)
    assert code == 0 and result["found"] is True


@pytest.mark.parametrize("d, c", [(7, 2), (16, 3)])
def test_units_finds_the_cyclotomic_index_once(d, c, capsys, monkeypatch):
    # make_field records d on the field; the unit generators and the
    # embeddings read by the log screen take it from there
    calls = []
    index_of = numfield.cyclotomic_index_of

    def counting(f):
        calls.append(f)
        return index_of(f)

    monkeypatch.setattr(numfield, "cyclotomic_index_of", counting)
    code, out, _ = run(["units", "--zeta", str(d), "--class", str(c), "--bound", "6"], capsys)
    assert code == 0 and json.loads(out)["candidates_screened"] > 0
    assert calls == [cyclotomic(d)]


def test_units_refuses_a_search_over_the_candidate_limit(capsys):
    # Q(ζ120) has 15 cyclotomic unit generators: 3^15 exponent vectors at
    # height 1 are over the candidate limit, so the search is refused
    code, out, err = run(["units", "--zeta", "120", "--class", "1", "--bound", "1"], capsys)
    assert code == 2 and out == ""
    assert "invalid input:" in err and "15 generators" in err and str(MAX_LATTICE_CANDIDATES) in err


def test_units_reports_the_height_screened_in_full(capsys, monkeypatch):
    # Q(√2) has one unit generator: under a limit of 10 candidates the search
    # screens up to height 4 (9 ≤ 10 < 11) and reports it; under a limit of
    # 2, height 1 alone (3 candidates) is over it
    monkeypatch.setattr(numfield, "MAX_LATTICE_CANDIDATES", 10)
    code, out, _ = run(["units", "--sqrt", "2", "--class", "1", "--bound", "12"], capsys)
    result = json.loads(out)
    assert code == 0 and result["found"] is True and result["bound"] == 4
    monkeypatch.setattr(numfield, "MAX_LATTICE_CANDIDATES", 2)
    code, out, err = run(["units", "--sqrt", "2", "--class", "1", "--bound", "12"], capsys)
    assert code == 2 and out == "" and "3^1 candidates" in err


@pytest.mark.parametrize("min_poly", ["[-1,-1,0,1]", "[4,0,0,0,1]"])
def test_units_refuses_other_field_shapes_before_factoring(min_poly, capsys, monkeypatch):
    # X³ − X − 1 (irreducible) and X⁴ + 4 (reducible) are neither of degree
    # at most two nor cyclotomic: refused without a factorization
    import sympy.polys.factortools

    def refuse(*args):
        raise AssertionError("factored")

    monkeypatch.setattr(sympy.polys.factortools, "dup_factor_list", refuse)
    code, out, err = run(["units", "--min-poly", min_poly], capsys)
    assert code == 2 and out == ""
    assert "no unit-generator source" in err and "Traceback" not in err


def test_graded_action_subcommand(tmp_path, capsys):
    path = write_input(tmp_path, {"r": 2, "class": 2, "matrix": [["2", "1"], ["1", "1"]]})
    code, out, _ = run(["graded-action", path], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["degree_dims"] == [2, 1]
    assert report["actions"][1]["matrix"] == [["1"]]


def test_graded_action_refuses_a_class_over_the_tensor_guard(tmp_path, monkeypatch, capsys):
    # r = 2, class 14: the degree-14 tensor matrix has 2^14·W(14) = 16384·1161
    # entries; the refusal comes before any degree builds one
    def refuse(*args):
        raise AssertionError("built a tensor matrix")

    monkeypatch.setattr(freenilp, "_hall_tensors", refuse)
    path = write_input(tmp_path, {"r": 2, "class": 14, "matrix": [["2", "1"], ["1", "1"]]})
    code, out, err = run(["graded-action", path], capsys)
    assert code == 2 and out == ""
    assert f"{2**14 * 1161} entries" in err and str(freenilp.MAX_TENSOR_ENTRIES) in err
    # hall-basis builds no tensor matrix and stays unguarded
    code, out, _ = run(["hall-basis", "--r", "2", "--class", "14"], capsys)
    assert code == 0 and json.loads(out)["degree_dims"][-1] == 1161


def test_hall_basis_subcommand(capsys):
    code, out, _ = run(["hall-basis", "--r", "3", "--class", "3"], capsys)
    report = json.loads(out)
    assert code == 0 and report["degree_dims"] == [3, 3, 8]


def test_no_cert_subcommand(tmp_path, capsys):
    path = write_input(tmp_path, {"generators": [[["1", "0"], ["0", "-1"]]], "class": 1})
    code, out, _ = run(["no-cert", path, "--height-bound", "5"], capsys)
    report = json.loads(out)
    assert code == 0 and report["hits"] == 0
    assert report["height_bound"] == 5 and report["candidates_screened"] == 11**2 - 1


def test_no_cert_reports_the_height_screened_in_full(tmp_path, capsys, monkeypatch):
    # the Klein bottle's commutant has dimension 2: under a limit of 100
    # candidates the search stops at height 4 (9² ≤ 100 < 11²), below the
    # requested 6, and reports that height
    monkeypatch.setattr(numfield, "MAX_LATTICE_CANDIDATES", 100)
    path = write_input(tmp_path, {"generators": [[["1", "0"], ["0", "-1"]]], "class": 1})
    code, out, _ = run(["no-cert", path, "--height-bound", "6"], capsys)
    report = json.loads(out)
    assert code == 0 and report["hits"] == 0
    assert report["height_bound"] == 4 and report["candidates_screened"] == 80


def test_demo_subcommand(capsys):
    code, out, _ = run(["demo", "d3"], capsys)
    assert code == 0 and json.loads(out)["group_order"] == 6
    code, out, _ = run(["demo", "q8", "--pretty"], capsys)
    assert code == 0 and "fs_sign: -" in out


def test_invalid_input_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, _, err = run(["decide", str(path)], capsys)
    assert code == 2 and "invalid input" in err


def test_missing_class_exit_code(tmp_path, capsys):
    path = write_input(tmp_path, {"generators": D3_INPUT["generators"]})
    code, _, err = run(["decide", path], capsys)
    assert code == 2


def test_unknown_demo_exit_code(capsys):
    code, _, err = run(["demo", "unknown"], capsys)
    assert code == 2


def test_infinite_group_exit_code(tmp_path, capsys):
    path = write_input(tmp_path, {"generators": [[["2"]]], "class": 1})
    code, _, err = run(["decide", path, "--max-order", "50"], capsys)
    assert code == 2 and "invalid input:" in err


def test_infinite_order_generator_fails_fast(tmp_path, capsys):
    # at the default --max-order the closure would grow entries to 2^10000 first
    path = write_input(tmp_path, {"generators": [[["2"]]], "class": 1})
    code, _, err = run(["decide", path], capsys)
    assert code == 2 and "invalid input:" in err and "determinant 2" in err


def test_infinite_image_group_fails_fast(tmp_path, capsys):
    # a ↦ [[1, 1], [0, 1]] has infinite order: the check stops on an image
    # orbit of more than |G| = 6 points, whatever --max-order is
    obj = {**D3_INPUT, "rep_images": [[["1", "1"], ["0", "1"]], [["1", "0"], ["0", "1"]]]}
    path = write_input(tmp_path, obj)
    code, out, err = run(["decide", path], capsys)
    assert code == 2 and out == ""
    assert "invalid input:" in err and "|G| = 6" in err and "max" not in err


def test_max_order_below_one_exit_code(tmp_path, capsys):
    path = write_input(tmp_path, D3_INPUT)
    code, _, err = run(["decide", path, "--max-order", "0"], capsys)
    assert code == 2 and "invalid input:" in err and "max_order must be >= 1" in err


def test_no_cert_on_yes_verdict_exit_code(tmp_path, capsys):
    path = write_input(tmp_path, {"generators": [[["1", "0"], ["0", "1"]]], "class": 1})
    code, _, err = run(["no-cert", path], capsys)
    assert code == 2 and "invalid input:" in err


def test_no_cert_refuses_a_search_that_screens_nothing(tmp_path, capsys):
    # 2·Q8 has a commutant of dimension 16: 3^16 candidates at height 1 are
    # over the candidate limit already, so no height would screen any
    q8 = [
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
    ]
    gens = [RatMatrix.from_rows(g) for g in q8]
    obj = {
        "generators": [g.to_json_obj() for g in gens],
        "rep_images": [RatMatrix.block_diag([g, g]).to_json_obj() for g in gens],
        "class": 2,
    }
    path = write_input(tmp_path, obj)
    code, out, err = run(["no-cert", path, "--height-bound", "3"], capsys)
    assert code == 2 and out == ""
    assert "invalid input:" in err and "dim E = 16" in err and str(MAX_LATTICE_CANDIDATES) in err


@pytest.mark.parametrize(
    "argv, obj",
    [
        (["decide"], {"generators": [[[1.5]]], "class": 1}),
        (["decide"], {"generators": [[[True]]], "class": 1}),
        (["decide"], {"generators": [[["-1.0"]]], "class": 1}),
        (["decide"], {"generators": 5, "class": 1}),
        (["decide"], {"generators": D3_INPUT["generators"], "rep_images": 5, "class": 1}),
        (["decide"], {"generators": [[["-1"]]], "rep_images": [[["1/0"]]], "class": 1}),
        (["decide"], {"generators": [[["-1"]]], "rep_images": [[["-1/00"]]], "class": 1}),
        (["units", "--sqrt", "2"], [1]),
        (["graded-action"], [1]),
        # scalar fields: a JSON integer or a decimal-integer string, nothing else
        (["decide"], {"generators": [[["-1"]]], "class": [1]}),
        (["decide"], {"generators": [[["-1"]]], "class": 1.5}),
        (["decide"], {"generators": [[["-1"]]], "class": True}),
        (["decide"], {"generators": [[["-1"]]], "class": "1.0"}),
        (["units"], {"field": "sqrt 2", "c": [1]}),
        (["units"], {"field": "sqrt 2", "c": 1, "bound": 2.5}),
        (["units"], {"min_poly": ["-2", "0", 1.0], "c": 1}),
        (["units"], {"min_poly": [-2, 0, {"1": 1}], "c": 1}),
        (["graded-action"], {"r": [2], "class": 1, "matrix": [["1", "0"], ["0", "1"]]}),
        (["graded-action"], {"r": 2, "c": 1.5, "matrix": [["1", "0"], ["0", "1"]]}),
        # negative search bounds
        (["no-cert", "--height-bound", "-1"], {"generators": [[["1", "0"], ["0", "-1"]]], "class": 1}),
        (["units", "--sqrt", "2", "--bound", "-3"], {}),
    ],
)
def test_malformed_json_exit_code(tmp_path, capsys, argv, obj):
    path = write_input(tmp_path, obj)
    code, _, err = run([argv[0], path, *argv[1:]], capsys)
    assert code == 2 and "invalid input:" in err


_ENTRY_MESSAGE = 'matrix entry {} is not an integer or a "p" or "p/q" string with q != 0'


@pytest.mark.parametrize(
    "generators, message",
    [
        ([[["1/0"]]], _ENTRY_MESSAGE.format("'1/0'")),
        ([[[1.5]]], _ENTRY_MESSAGE.format("1.5")),
        ([[[True]]], _ENTRY_MESSAGE.format("True")),
        ([[["1", "0"], ["0"]]], "ragged rows"),
        # every entry is checked before the shape
        ([[["1", "0"], ["x"]]], _ENTRY_MESSAGE.format("'x'")),
    ],
)
def test_malformed_matrix_literal_messages(tmp_path, capsys, generators, message):
    path = write_input(tmp_path, {"generators": generators, "class": 1})
    code, out, err = run(["decide", path], capsys)
    assert (code, out, err) == (2, "", f"invalid input: {message}\n")


def test_integer_literals_read_without_fraction(tmp_path, capsys, monkeypatch):
    """JSON integers and decimal-integer strings become int numerators
    directly: with ratmat's Fraction refused while each literal is read, an
    all-integer input still ingests and decides as before."""
    obj = {
        "generators": D3_INPUT["generators"],
        "rep_images": [[[0, -1], ["1", -1]], [["+0", "-1"], [-1, "0"]]],
        "class": 1,
    }
    path = write_input(tmp_path, obj)
    code, expected, _ = run(["decide", path], capsys)
    assert code == 0
    read = RatMatrix.from_json_obj.__func__

    def refuse(*args):
        raise AssertionError("a Fraction was built for an integer entry")

    def reading(cls, literal):
        with monkeypatch.context() as patched:
            patched.setattr(ratmat, "Fraction", refuse)
            return read(cls, literal)

    monkeypatch.setattr(RatMatrix, "from_json_obj", classmethod(reading))
    code, out, _ = run(["decide", path], capsys)
    assert code == 0
    without_timings = [{k: v for k, v in json.loads(o).items() if k != "timings"} for o in (out, expected)]
    assert without_timings[0] == without_timings[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--precision-bits", "64"],
        ["units", "--sqrt", "2", "--precision-bits", "64"],
        ["porteous", "--height-bound", "3"],
        ["decompose", "--class", "2"],
        ["graded-action", "--class", "2"],
        ["units", "--seed", "1"],
        ["decide", "--seed", "1", "-"],
        ["porteous", "--seed", "1"],
        ["decompose", "--seed", "1"],
        ["no-cert", "--seed", "1"],
        ["demo", "d3", "--seed", "1"],
    ],
)
def test_removed_flags_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _parse_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse_args, which exits on help and
    on a usage error."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [["--help"], ["-h"]])
def test_top_level_help_lists_every_subcommand(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert all(f"    {name} " in out for name in SUBCOMMANDS)


@pytest.mark.parametrize("argv", [["bogus"], [], ["--bogus"], ["dec"]])
def test_unknown_or_missing_subcommand_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: anosov [-h]") and "{decide,porteous," in err


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("tail", [["-h"], ["--bogus"], ["a", "b", "c"]])
def test_one_subcommand_parser_reads_as_the_full_one(name, tail, capsys, monkeypatch):
    """main builds only the subcommand it is given; its help, usage lines,
    errors and exit codes match the parser with every subcommand."""
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse_outcome(build_parser().parse_args, [name, *tail], capsys)
    alone = _parse_outcome(parse_args, [name, *tail], capsys)
    assert alone == full
    assert full[0] in (0, 2)


def test_main_builds_only_the_named_subcommand(monkeypatch, capsys):
    built = []
    build, alone = cli.build_parser, cli.subcommand_parser

    def spy_full():
        built.append(None)
        return build()

    def spy_alone(name):
        built.append(name)
        return alone(name)

    monkeypatch.setattr(cli, "build_parser", spy_full)
    monkeypatch.setattr(cli, "subcommand_parser", spy_alone)
    assert main(["hall-basis", "--r", "2", "--class", "2"]) == 0
    with pytest.raises(SystemExit):
        main(["--help"])
    assert built == ["hall-basis", None]
