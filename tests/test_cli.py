"""Command-line interface: exit codes, output formats, file round-trips."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wondertoric import cli
from wondertoric.cli import forest_from_text, forest_to_text, main
from wondertoric.errors import FileFormatError, MathAssertionError
from wondertoric.fans import Fan
from wondertoric.files import (
    arrangement_from_dict,
    arrangement_to_dict,
    fan_from_dict,
    fan_to_dict,
    fixture_path,
    load_arrangement,
    load_fan,
)
from wondertoric.typea import enumerate_forests

GOOD_FAN = str(fixture_path("good_fan_3d.json"))
MAIN_ARR = str(fixture_path("example_main.arrangement.json"))
A2_ARR = str(fixture_path("example_a2.arrangement.json"))
A2_FAN = str(fixture_path("weyl_a3_fan.json"))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fan_check_table(capsys):
    code, out, err = run(capsys, ["fan", "check", GOOD_FAN])
    assert code == 0
    assert err == ""
    assert "smooth: yes" in out
    assert "complete: yes" in out
    assert "f-vector: (1, 72, 210, 140)" in out
    assert "Betti numbers: (1, 69, 69, 1)" in out


def test_fan_check_json(capsys):
    code, out, _ = run(capsys, ["fan", "check", GOOD_FAN, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["formatVersion"] == 1
    assert payload["betti"] == [1, 69, 69, 1]
    assert payload["fVector"] == [1, 72, 210, 140]
    assert payload["smooth"] is True


def _into_a_closed_pipe(args, unbuffered):
    """Exit status and stderr of the CLI run on `args` when the reader closes
    its end before the CLI writes, as `| head` does to a long listing."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "wondertoric.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(timeout=120), err


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_listing_into_a_closed_pipe_exits_141_without_a_traceback(unbuffered):
    # block-buffered stdout first fails in the final flush
    code, err = _into_a_closed_pipe(
        ["model", "basis", str(fixture_path("example_lines.arrangement.json"))]
        + [str(fixture_path("p1x4_fan.json")), "--table"],
        unbuffered,
    )
    assert code == 141
    assert err == ""


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_help_into_a_closed_pipe_prints_no_traceback(unbuffered):
    code, err = _into_a_closed_pipe(["model", "basis", "--help"], unbuffered)
    # unbuffered, argparse drops the failed write itself and exits 0
    assert code == (0 if unbuffered else 141)
    assert err == ""


def test_plain_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["model", "basis", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_json_and_table_flags_conflict():
    with pytest.raises(SystemExit) as exc:
        main(["fan", "check", GOOD_FAN, "--json", "--table"])
    assert exc.value.code == 2


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["fan", "check", "/no/such/file.json"])
    assert code == 2
    assert err.startswith("error:")


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, _, err = run(capsys, ["fan", "check", str(path)])
    assert code == 2
    assert "not valid JSON" in err


# bytes that do not decode: not UTF-8, an integer past Python's 4,300-digit
# limit, nesting past the recursion limit
UNDECODABLE = {
    "non-utf8": b'{"formatVersion": 1, "ambientDim": 2\xff}',
    "long-integer": b'{"formatVersion": 1, "ambientDim": ' + b"9" * 5000 + b"}",
    "deep-nesting": b"[" * 200_000,
}


@pytest.mark.parametrize("command", [["fan", "check"], ["arr", "poset"]], ids=" ".join)
@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_undecodable_file_exits_2(tmp_path, capsys, command, case):
    path = tmp_path / "input.json"
    path.write_bytes(UNDECODABLE[case])
    code, out, err = run(capsys, command + [str(path)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_missing_key_exits_2(tmp_path, capsys):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"formatVersion": 1, "ambientDim": 2}))
    code, _, err = run(capsys, ["fan", "check", str(path)])
    assert code == 2
    assert "missing key" in err


def test_semantic_fan_error_exits_3(tmp_path, capsys):
    path = tmp_path / "out_of_range.json"
    path.write_text(
        json.dumps(
            {
                "formatVersion": 1,
                "ambientDim": 2,
                "rays": [[1, 0], [0, 1]],
                "maximalCones": [[0, 5]],
            }
        )
    )
    code, _, err = run(capsys, ["fan", "check", str(path)])
    assert code == 3
    assert "out of range" in err


def test_every_fan_command_refuses_what_fan_check_refuses(tmp_path, capsys):
    # P^1 x P^1 with each ray listed twice, its eight cones winding twice
    # around the origin; and P^1 x P^1 plus a ray (1, 1) in no cone
    square = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    bad = {
        "duplicate rays": (square * 2, [[i, (i + 1) % 8] for i in range(8)]),
        "rays [4] are not used by any maximal cone": (
            square + [[1, 1]],
            [[0, 1], [1, 2], [2, 3], [0, 3]],
        ),
    }
    # the two curves t1 = 1 and t2 = 1
    arr = tmp_path / "two_lines.json"
    arr.write_text(
        json.dumps(
            {
                "formatVersion": 1,
                "torusDim": 2,
                "layers": [
                    {"gamma": [[1, 0]], "phi": ["0"]},
                    {"gamma": [[0, 1]], "phi": ["0"]},
                ],
            }
        )
    )
    for message, (rays, cones) in bad.items():
        fan = tmp_path / "bad_rays.json"
        fan.write_text(
            json.dumps(
                {"formatVersion": 1, "ambientDim": 2, "rays": rays, "maximalCones": cones}
            )
        )
        code, out, refusal = run(capsys, ["fan", "check", str(fan)])
        assert (code, out, refusal) == (3, "", f"error: {message}\n")
        for command in (
            ["model", "poincare"],
            ["model", "basis"],
            ["model", "presentation"],
            ["arr", "goodness"],
        ):
            code, out, err = run(capsys, [*command, str(arr), str(fan)])
            assert (code, out, err) == (3, "", refusal), (message, command)


def test_incomplete_fan_exits_3(tmp_path, capsys):
    path = tmp_path / "halfplane.json"
    path.write_text(
        json.dumps(
            {
                "formatVersion": 1,
                "ambientDim": 2,
                "rays": [[1, 0], [0, 1]],
                "maximalCones": [[0, 1]],
            }
        )
    )
    code, out, _ = run(capsys, ["fan", "check", str(path)])
    assert code == 3
    assert "complete: no" in out


def test_nonsplit_layer_exits_3(tmp_path, capsys):
    # 10**9 torsion components: refused without enumerating them
    path = tmp_path / "nonsplit.json"
    path.write_text(
        json.dumps(
            {
                "formatVersion": 1,
                "torusDim": 2,
                "layers": [{"gamma": [[10**9, 0]], "phi": ["0"]}],
            }
        )
    )
    code, out, err = run(capsys, ["arr", "poset", str(path)])
    assert code == 3
    assert out == ""
    assert "split summand" in err


def _incomplete_model_files(tmp_path):
    """(arrangement, fan) file pairs whose fans are not complete: the A2 fan
    minus one cone, and under the point {x = y = 1} the orthant fan of Z^2
    plus a stray 1-dimensional maximal cone through (1, 1) and the fan of
    Z^2 with no cones."""
    weyl = load_fan(A2_FAN)
    minus = tmp_path / "weyl_minus_cone.json"
    minus.write_text(
        json.dumps(fan_to_dict(Fan.make(2, weyl.rays, weyl.maximal_cones[:-1])))
    )
    stray = tmp_path / "orthant_stray.json"
    stray.write_text(
        json.dumps(
            {
                "formatVersion": 1,
                "ambientDim": 2,
                "rays": [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
                "maximalCones": [[0, 2], [0, 3], [1, 2], [1, 3], [4]],
            }
        )
    )
    point = tmp_path / "point.json"
    point.write_text(
        json.dumps(
            {
                "formatVersion": 1,
                "torusDim": 2,
                "layers": [{"gamma": [[1, 0], [0, 1]], "phi": ["0", "0"]}],
            }
        )
    )
    empty = tmp_path / "no_cones.json"
    empty.write_text(
        json.dumps(
            {"formatVersion": 1, "ambientDim": 2, "rays": [], "maximalCones": []}
        )
    )
    return ((A2_ARR, str(minus)), (str(point), str(stray)), (str(point), str(empty)))


def test_model_commands_reject_incomplete_fans(tmp_path, capsys):
    for arr, fan in _incomplete_model_files(tmp_path):
        for what in ("nested", "admissible", "basis", "poincare", "presentation"):
            code, out, err = run(capsys, ["model", what, arr, fan])
            assert code == 3, (fan, what)
            assert out == ""
            assert "require a complete fan" in err
        # the fan and goodness reports still accept an incomplete fan
        code, out, _ = run(capsys, ["fan", "check", fan])
        assert code == 3
        assert "complete: no" in out
        code, _, _ = run(capsys, ["arr", "goodness", arr, fan])
        assert code == 0


def test_fan_check_reports_a_non_simplicial_fan(tmp_path, capsys):
    # three rays in the cone {0, 1, 2} of the plane
    fan = tmp_path / "flat.json"
    fan.write_text(
        json.dumps(
            {
                "formatVersion": 1,
                "ambientDim": 2,
                "rays": [[1, 0], [1, 1], [0, 1], [-1, -1]],
                "maximalCones": [[0, 1, 2], [0, 3], [2, 3]],
            }
        )
    )
    code, out, err = run(capsys, ["fan", "check", str(fan)])
    assert code == 3
    assert err == ""
    assert out.splitlines()[2:] == [
        "simplicial: no",
        "smooth: no",
        "complete: no",
        "f-vector: unavailable (requires a simplicial fan)",
        "Betti numbers: unavailable (requires a smooth complete fan)",
    ]
    code, out, _ = run(capsys, ["fan", "check", str(fan), "--json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["simplicial"] is payload["smooth"] is payload["complete"] is False
    assert payload["fVector"] is None and payload["betti"] is None


def test_fan_check_counts_no_zero_cone_on_a_cone_less_fan(tmp_path, capsys):
    # the zero cone is a face of a maximal cone, so with none it is absent
    fan = tmp_path / "no_cones.json"
    fan.write_text(
        json.dumps({"formatVersion": 1, "ambientDim": 2, "rays": [], "maximalCones": []})
    )
    code, out, err = run(capsys, ["fan", "check", str(fan)])
    assert code == 3
    assert err == ""
    assert out.splitlines() == [
        "rays: 0",
        "maximal cones: 0",
        "simplicial: yes",
        "smooth: yes",
        "complete: no",
        "f-vector: (0)",
        "Betti numbers: unavailable (requires a smooth complete fan)",
    ]
    code, out, _ = run(capsys, ["fan", "check", str(fan), "--json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["fVector"] == [0] and payload["complete"] is False


def test_model_commands_reject_non_smooth_fans(tmp_path, capsys):
    fan = tmp_path / "index_two.json"
    fan.write_text(
        json.dumps(
            {
                "formatVersion": 1,
                "ambientDim": 2,
                "rays": [[1, 0], [1, 2], [-1, 0], [0, -1]],
                "maximalCones": [[0, 1], [1, 2], [2, 3], [0, 3]],
            }
        )
    )
    line = tmp_path / "line.json"
    line.write_text(
        json.dumps(
            {
                "formatVersion": 1,
                "torusDim": 2,
                "layers": [{"gamma": [[0, 1]], "phi": ["0"]}],
            }
        )
    )
    for what in ("nested", "admissible", "basis", "poincare", "presentation"):
        code, out, err = run(capsys, ["model", what, str(line), str(fan)])
        assert code == 3, what
        assert out == ""
        assert "require a smooth fan" in err
    code, out, _ = run(capsys, ["fan", "check", str(fan)])
    assert code == 3
    assert "smooth: no" in out and "complete: yes" in out


def test_fan_round_trip():
    fan = load_fan(GOOD_FAN)
    assert fan_from_dict(fan_to_dict(fan)) == fan


def test_arrangement_round_trip():
    for name in (
        "example_main.arrangement.json",
        "example_lines.arrangement.json",
        "example_a2.arrangement.json",
    ):
        arr = load_arrangement(fixture_path(name))
        assert arrangement_from_dict(arrangement_to_dict(arr)) == arr


def test_arr_poset_table(capsys):
    code, out, _ = run(capsys, ["arr", "poset", A2_ARR])
    assert code == 0
    assert "covers (containing layer -> contained layer):" in out


def test_arr_goodness(capsys):
    code, out, _ = run(capsys, ["arr", "goodness", A2_ARR, A2_FAN])
    assert code == 0
    assert "good: yes" in out


def test_arr_goodness_reports_a_lattice_without_an_equal_sign_basis(tmp_path, capsys):
    # the lattice's only bases, (1, 0) and (-1, 0), take both signs on the cone
    # of P2 spanned by (1, 0) and (-1, -1)
    fan = tmp_path / "p2.json"
    fan.write_text(
        json.dumps(
            fan_to_dict(Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]))
        )
    )
    arr = tmp_path / "line.json"
    arr.write_text(
        json.dumps(
            {"formatVersion": 1, "torusDim": 2, "layers": [{"gamma": [[1, 0]], "phi": ["0"]}]}
        )
    )
    code, out, err = run(capsys, ["arr", "goodness", str(arr), str(fan)])
    assert (code, err) == (3, "")
    assert out == (
        "character lattices checked: 1\n"
        "gamma [(1, 0)]: no equal-sign basis within bound 8\n"
        "good: no\n"
    )
    code, out, err = run(capsys, ["arr", "goodness", str(arr), str(fan), "--json"])
    assert (code, err) == (3, "")
    payload = {
        "bases": [],
        "bound": 8,
        "failures": [[[1, 0]]],
        "formatVersion": 1,
        "good": False,
    }
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# supplied equal-sign bases that every command searching for bases rejects:
# (new bases of the file, expected error)
BAD_BASES = {
    # the lattice of the bundled fourth basis, but (1, -1, 3) is not equal-sign
    "main-mixed-signs": (
        MAIN_ARR,
        GOOD_FAN,
        lambda bases: bases[:3] + [[[1, 0, 2], [1, -1, 3]]] + bases[4:],
        "supplied basis row (1, -1, 3) violates the equal-sign condition",
    ),
    "a2-mixed-signs": (
        A2_ARR,
        A2_FAN,
        lambda bases: [[[1, 1]]],
        "supplied basis row (1, 1) violates the equal-sign condition",
    ),
    "a2-dependent-rows": (
        A2_ARR,
        A2_FAN,
        lambda bases: [[[1, 0], [2, 0]]],
        "supplied equal-sign rows are not a basis",
    ),
}
BASIS_COMMANDS = {
    "goodness": ["arr", "goodness"],
    "basis": ["model", "basis"],
    "poincare": ["model", "poincare"],
    "presentation": ["model", "presentation"],
}


@pytest.mark.parametrize("command", sorted(BASIS_COMMANDS))
@pytest.mark.parametrize("case", sorted(BAD_BASES))
def test_bad_supplied_bases_exit_3_everywhere(tmp_path, capsys, command, case):
    arr_path, fan_path, rewrite, message = BAD_BASES[case]
    data = json.loads(open(arr_path).read())
    data["equalSignBases"] = rewrite(data.get("equalSignBases", []))
    path = tmp_path / "arrangement.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, BASIS_COMMANDS[command] + [str(path), fan_path])
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["goodness", "poincare", "presentation"])
@pytest.mark.parametrize("bound", ["0", "-1"])
def test_bound_below_one_exits_3(capsys, command, bound):
    argv = BASIS_COMMANDS[command] + [A2_ARR, A2_FAN, "--bound", bound]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == f"error: equal-sign search bound {bound} is below 1\n"


@pytest.mark.parametrize("what", ["nested", "admissible"])
def test_enumerations_take_no_bound(what):
    with pytest.raises(SystemExit) as exc:
        main(["model", what, A2_ARR, A2_FAN, "--bound", "8"])
    assert exc.value.code == 2


def test_model_nested_counts(capsys):
    code, out, _ = run(capsys, ["model", "nested", MAIN_ARR, GOOD_FAN])
    assert code == 0
    assert "building set: 9 members" in out
    assert "well-connected: yes" in out
    assert "nested sets: 48" in out


def test_model_admissible_counts(capsys):
    code, out, _ = run(capsys, ["model", "admissible", MAIN_ARR, GOOD_FAN])
    assert code == 0
    assert "admissible functions: 11" in out


def test_model_poincare(capsys):
    code, out, _ = run(capsys, ["model", "poincare", MAIN_ARR, GOOD_FAN])
    assert code == 0
    assert "Poincare coefficients: (1, 75, 75, 1)" in out
    assert "oracle agreement: yes" in out


def test_model_poincare_oracle_disagreement(monkeypatch, capsys):
    monkeypatch.setattr(cli, "rank_via_blowup_recursion", lambda *a, **k: (999,))
    code, out, _ = run(capsys, ["model", "poincare", A2_ARR, A2_FAN])
    assert code == 4
    assert "oracle agreement: no" in out


def test_math_assertion_exits_4(monkeypatch, capsys):
    def boom(fan):
        raise MathAssertionError("internal invariant broke")

    monkeypatch.setattr(cli, "validate", boom)
    code, _, err = run(capsys, ["fan", "check", GOOD_FAN])
    assert code == 4
    assert "internal invariant broke" in err


def test_model_presentation_counts(capsys):
    code, out, _ = run(capsys, ["model", "presentation", A2_ARR, A2_FAN])
    assert code == 0
    assert "variables: 10 (6 ray classes, 4 member classes)" in out
    assert "class (a) nonface monomials: 9" in out
    assert "class (b) linear forms: 2" in out
    assert "class (c) ray-member products: 18" in out
    assert "class (d) member relations: 11" in out
    assert "class (e) empty-intersection products: 0" in out


def test_model_presentation_full_listing(capsys):
    code, out, _ = run(
        capsys, ["model", "presentation", A2_ARR, A2_FAN, "--full"]
    )
    assert code == 0
    assert out.count("nonface: ") == 9
    assert out.count("linear: ") == 2
    assert out.count("product: ") == 18
    assert out.count("relation ") == 11


LINES_ARR = str(fixture_path("example_lines.arrangement.json"))
LINES_FAN = str(fixture_path("p1x4_fan.json"))
EXAMPLE_FILES = {
    "a2": [A2_ARR, A2_FAN],
    "lines": [LINES_ARR, LINES_FAN],
    "main": [MAIN_ARR, GOOD_FAN],
}

# sha256 of the full basis and presentation listings; the JSON terms are
# ordered by their (variable, exponent) lists, not as sorted variable tuples
LISTING_DIGESTS = {
    ("a2", "basis", "--table"): "6f875c1b7a013cd45e53ec12255fd7bc3d30ecdfbfcfcf9c735621463c07fc19",
    ("a2", "basis", "--json"): "a5afafbf5fff2d93d2353e161c365b2c0d7f37b169030257f7e0e8fb2ba634d2",
    ("a2", "product", "--table"): "e30939be3f8eb1b46eeae5e9f31fb21fc60d7e2c848395ef4069b5461c599545",
    ("a2", "product", "--json"): "42f40e23b5ae5527cf66dc529db8a1fb236258d7c07a681afaa995988024cf84",
    ("a2", "power", "--table"): "08683e5cb1c5e94f58f9f06a1092862b245b21ac16553022fb43e79d78cbb51c",
    ("a2", "power", "--json"): "39906c28e23e09e3311b082c7f6f1c260c277f49040129d8685a4cb1d33a383b",
    ("lines", "basis", "--table"): "95c81e8f7e05f04f7380acc4801bd83cea6036cf72b668ab59ce112de50397b4",
    ("lines", "basis", "--json"): "e4ab0a8c8c8ad8ca5c20ae8a70ce488bc50ccec3f9b15650332d58662bdd3cac",
    ("lines", "product", "--table"): "a68bcf3cc171e0f8f9259b16593c4c6d2d87ee5a96ba83faf1937c50682c8ba0",
    ("lines", "product", "--json"): "d065f8066448fd57fc9dce4ea5097bf8723c7185b451c502d83ee92e99e5b051",
    ("lines", "power", "--table"): "8074f226e8cbda6fcc76c7dccddd2cde55541bb51990dbe4c0a350636dfdeedc",
    ("lines", "power", "--json"): "3c556dcec230fba2a691993647750bc74fc770a724a21fd0beb54f7e80918eb7",
    # the only example with large class (d) relations
    ("main", "product", "--table"): "c145cf765af1c982af0c31139d082e94a23099b9db323e9cca6661ffc7374286",
    ("main", "power", "--table"): "d966a299e4cb693f74af2329be296519f0770513f590217867c884dc73961d67",
}


@pytest.mark.parametrize(
    "key", sorted(LISTING_DIGESTS), ids=lambda key: "-".join(key).replace("--", "")
)
def test_model_basis_and_presentation_listings_byte_for_byte(capsys, key):
    example, what, flag = key
    files = EXAMPLE_FILES[example]
    if what == "basis":
        argv = ["model", "basis", *files, flag]
    else:
        argv = ["model", "presentation", *files, "--full", "--variant", what, flag]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LISTING_DIGESTS[key]


# sha256 of the --json reports that no other test reads in full
REPORT_DIGESTS = {
    ("a2", "arr", "goodness"): "23094b77739c737a8bca543279c2186a845454ddbda71d9f00e4de5e719fb2f3",
    ("a2", "model", "admissible"): "480ed8626cafd56e909ee984be9b3e668ce4d47a28d7daa9118f51ea50f0d8fb",
    ("a2", "model", "poincare"): "9964697f3266df37bbc43404cba48e5a8bf903f2776ef6e555e74869a2a6c790",
    ("lines", "arr", "goodness"): "c58ff12d6f7d4302ff783abe5720b121a97494e7a3b79e30c76c140b9dd8dfef",
    ("lines", "model", "admissible"): "83b8f352ee0574120d6282e8e7ba90687ed566a3bf2800100dc0c0ebd7b8bdb7",
    ("lines", "model", "poincare"): "b014702ad0513e26fff87ef7ad1bd920159d735e99578b384dae764ce0756847",
    ("main", "arr", "goodness"): "5e7ed738d47f0bdd32be5efc6fd31167c0db0b6d091c314e3ec5b9267dedad70",
    ("main", "model", "admissible"): "999a53a921aaa52ef58e08926edce19f0d82ef80d9402ad18ffaf63c1133a0c3",
    ("main", "model", "poincare"): "9f5efca6b498bafc12c1873d4b0bc3a84dd3e6af6587795e80c2161114077c80",
}


@pytest.mark.parametrize("key", sorted(REPORT_DIGESTS), ids="-".join)
def test_json_reports_byte_for_byte(capsys, key):
    example, *command = key
    code, out, err = run(capsys, [*command, *EXAMPLE_FILES[example], "--json"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[key]


def test_typea_eulerian(capsys):
    code, out, _ = run(capsys, ["typea", "eulerian", "3"])
    assert code == 0
    assert "A_3(q) = q + 4*q^2 + q^3" in out
    assert "coefficients: (0, 1, 4, 1)" in out


def test_typea_lec_worked_example(capsys):
    word = ["10", "13", "14", "8", "3", "6", "5", "4", "7", "11", "12", "9", "1", "2"]
    code, out, _ = run(capsys, ["typea", "lec", *word])
    assert code == 0
    assert "prefix: [10, 13, 14]" in out
    assert "hook 1: [8, 3, 6], inversions 2" in out
    assert "hook 2: [5, 4, 7, 11, 12], inversions 1" in out
    assert "hook 3: [9, 1, 2], inversions 2" in out
    assert "lec: 5" in out


def test_typea_lec_rejects_repeats(capsys):
    code, _, err = run(capsys, ["typea", "lec", "2", "2"])
    assert code == 3
    assert "distinct" in err


def test_typea_psi_forward(capsys):
    code, out, _ = run(capsys, ["typea", "psi", "3", "1", "2"])
    assert code == 0
    assert "result: (q^2: 1, 2, 3, 4)" in out
    assert "degree: 0 + 2 = 2" in out


def test_typea_psi_invert_round_trip(capsys):
    code, out, _ = run(
        capsys, ["typea", "psi", "--invert", "--forest", "(q^2: 1, 2, 3, 4)"]
    )
    assert code == 0
    assert "smaller forest: 1; 2; 3" in out
    assert "permutation: [3, 1, 2]" in out


def test_typea_psi_invert_requires_forest(capsys):
    code, _, err = run(capsys, ["typea", "psi", "--invert"])
    assert code == 3
    assert "requires --forest" in err


def test_typea_verify(capsys):
    code, out, _ = run(capsys, ["typea", "verify", "--order", "4"])
    assert code == 0
    assert "tree-series recurrence through t^4: pass" in out
    assert "statistic composite identity through t^4: pass" in out
    assert "hook/descent equidistribution through t^4: pass" in out


def test_typea_verify_beyond_the_enumerated_orders(capsys):
    code, out, err = run(capsys, ["typea", "verify", "--order", "12", "--json"])
    assert code == 0
    assert err == ""
    assert json.loads(out)["checks"] == {
        "tree-series recurrence through t^12": True,
        "statistic composite identity through t^12": True,
        "hook/descent equidistribution through t^12": True,
    }


def test_typea_verify_counts_the_statistic_through_t12(capsys):
    # the counted link stops at t^12 however far the series identities go
    code, out, _ = run(capsys, ["typea", "verify", "--order", "13"])
    assert code == 0
    assert "statistic composite identity through t^13: pass" in out
    assert "hook/descent equidistribution through t^12: pass" in out


def test_typea_verify_rejects_order_below_1(capsys):
    for order in ("0", "-1"):
        code, out, err = run(capsys, ["typea", "verify", "--order", order])
        assert code == 3
        assert out == ""
        assert err == f"error: series order {order} is below 1\n"


def test_forest_text_round_trip():
    for forest in enumerate_forests(5):
        assert forest_from_text(forest_to_text(forest)) == forest


def test_forest_from_text_rejects_garbage():
    with pytest.raises(FileFormatError, match="expected a number"):
        forest_from_text("(q^1: 1, 2, x)")
    with pytest.raises(FileFormatError, match="expected ',' or '\\)'"):
        forest_from_text("(q^1: 1 2 3)")
    with pytest.raises(FileFormatError, match="empty forest component"):
        forest_from_text("1; ; 2")
    with pytest.raises(FileFormatError, match="trailing input"):
        forest_from_text("1 2")


def _chain_text(depth: int) -> str:
    """An admissible tree nested `depth` branches deep, as forest text."""
    text = "".join(f"(q^1: {2 * k + 1}, {2 * k + 2}, " for k in range(depth))
    return text + str(2 * depth + 1) + ")" * depth


@pytest.mark.parametrize(
    "forest",
    [
        "(q^1: " * 3000,
        # parses, but printing it recurses further than parsing did
        _chain_text(sys.getrecursionlimit() // 2),
        "(q^1: 1, 2, " + "3" * 5000 + ")",
        "(q^1: 1, 2, \u00b2)",
    ],
    ids=["open-branches", "deep-chain", "long-label", "superscript-label"],
)
def test_unreadable_forest_text_exits_2(capsys, forest):
    code, out, err = run(capsys, ["typea", "psi", "--invert", "--forest", forest])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_nested_forest_within_the_recursion_limit_still_inverts(capsys):
    text = _chain_text(50)
    code, out, _ = run(capsys, ["typea", "psi", "--invert", "--forest", text])
    assert code == 0
    assert out.splitlines()[0] == f"forest: {text}"


@pytest.mark.parametrize("example", ["example-main", "example-lines", "example-a2"])
def test_reproduce_matches_golden(capsys, example):
    code, out, _ = run(capsys, ["reproduce", example])
    assert code == 0
    assert "reproduction matches the recorded output" in out


@pytest.fixture
def tmp_goldens(tmp_path, monkeypatch):
    """An empty directory that `reproduce` reads and writes as its goldens;
    the inputs are still the bundled fixtures."""
    golden = tmp_path / "golden"
    golden.mkdir()
    bundled = cli.fixture_path
    monkeypatch.setattr(
        cli, "fixture_path", lambda name: golden if name == "golden" else bundled(name)
    )
    return golden


def test_reproduce_prints_a_diff_and_exits_1_on_a_changed_golden(tmp_goldens, capsys):
    text = cli.reproduction_text("example-a2")
    (tmp_goldens / "example-a2.txt").write_text(text.replace("elements: 5", "elements: 6"))
    code, out, err = run(capsys, ["reproduce", "example-a2"])
    assert (code, err) == (1, "")
    assert out.startswith("--- recorded\n+++ computed\n@@ ")
    assert "\n-elements: 6\n+elements: 5\n" in out


def test_reproduce_without_a_golden_exits_2(tmp_goldens, capsys):
    code, out, err = run(capsys, ["reproduce", "example-a2"])
    assert (code, out) == (2, "")
    assert err == "error: no golden output bundled for 'example-a2'\n"


def test_reproduce_update_golden_writes_the_report(tmp_goldens, capsys):
    code, out, _ = run(capsys, ["reproduce", "example-lines", "--update-golden"])
    golden = tmp_goldens / "example-lines.txt"
    assert (code, out) == (0, f"wrote {golden}\n")
    assert golden.read_text() == cli.reproduction_text("example-lines")
    code, out, _ = run(capsys, ["reproduce", "example-lines"])
    assert (code, out) == (0, "example-lines: reproduction matches the recorded output\n")


def test_reproduce_is_deterministic():
    first = cli.reproduction_text("example-a2")
    second = cli.reproduction_text("example-a2")
    assert first == second


def test_reproduce_unknown_example_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "example-zzz"])
    assert exc.value.code == 2


def test_json_output_is_versioned_everywhere(capsys):
    for argv in (
        ["arr", "poset", A2_ARR, "--json"],
        ["model", "nested", A2_ARR, A2_FAN, "--json"],
        ["typea", "eulerian", "4", "--json"],
        ["typea", "lec", "3", "1", "2", "--json"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["formatVersion"] == 1
