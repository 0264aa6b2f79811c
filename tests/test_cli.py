"""Command-line interface: reports, exit codes, determinism."""

import json
import warnings

import pytest
from click.testing import CliRunner

from piercedcodes.cli import main

FIG = "[[],[1],[1,2],[2],[1,3],[1,2,3]]"
TWO = "[[],[1],[1,2],[2]]"


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_analyze_report(runner):
    res = run(runner, "analyze", "--code", FIG)
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["cf_max_degree"] <= 2
    assert rep["clique_complex"] and rep["shelling_verified"]
    assert rep["inductively_pierced"]
    assert rep["piercing_sequence"]["steps"][1] == {
        "lambda": [2], "sigma": [1], "tau": [],
    }
    assert "relabeling" not in rep["piercing_sequence"]


def test_analyze_from_file(runner, tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"neurons": 2, "codewords": [[], [1], [1, 2], [2]]}))
    res = run(runner, "analyze", "--input", str(path))
    assert res.exit_code == 0
    assert json.loads(res.output)["neurons"] == 2


def test_malformed_input_exit_1(runner):
    res = run(runner, "analyze", "--code", "not json")
    assert res.exit_code == 1
    res = run(runner, "analyze")
    assert res.exit_code == 1


@pytest.mark.parametrize("args", [
    ["detect", "--code", "[[1.5]]"],
    ["detect", "--code", "[]"],
    ["analyze", "--code", '{"a":1}'],
    ["toric-gb", "--code", TWO, "--order", "wgrevlex", "--weights", "[1]"],
    ["toric-gb", "--code", TWO, "--order", "wgrevlex", "--weights", "notjson"],
    ["toric-gb", "--code", "[[]]"],
    ["analyze", "--code", "[[],[0],[1]]"],
])
def test_malformed_input_one_line_error(runner, args):
    res = run(runner, *args)
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:"), res.output


@pytest.mark.parametrize("args", [
    ["detect", "--code", TWO, "--max-k", "abc"],
    ["realize", "--code", TWO, "--mode", "ball", "--samples", "0"],
    ["realize", "--code", TWO, "--mode", "ball", "--samples", "-5"],
])
def test_usage_error_exit_1(runner, args):
    res = run(runner, *args)
    assert res.exit_code == 1
    assert any(line.startswith("Error:") for line in res.output.splitlines()), res.output


def test_pierce_command(runner):
    res = run(runner, "pierce", "--code", TWO, "--lam", "[2]", "--sigma", "[1]")
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["pierceable"]
    assert [1, 3] in rep["result"]["codewords"]


def test_pierce_not_pierceable_exit_2(runner):
    res = run(runner, "pierce", "--code", "[[],[1],[2]]", "--lam", "[1,2]")
    assert res.exit_code == 2
    assert not json.loads(res.output)["pierceable"]


def test_pierce_bad_partition_exit_1(runner):
    res = run(runner, "pierce", "--code", TWO, "--lam", "[1]")
    assert res.exit_code == 1


def test_detect(runner):
    res = run(runner, "detect", "--code", FIG)
    assert res.exit_code == 0
    assert json.loads(res.output)["status"] == "pierced"
    res = run(runner, "detect", "--code", "[[1,2]]")
    assert res.exit_code == 0
    assert json.loads(res.output)["status"] == "not_pierced"


def test_detect_relabel(runner):
    scrambled = "[[],[2],[2,3],[3],[1,2],[1,2,3]]"
    res = run(runner, "detect", "--code", scrambled)
    assert json.loads(res.output)["status"] == "not_pierced"
    res = run(runner, "detect", "--code", scrambled, "--relabel")
    rep = json.loads(res.output)
    assert rep["status"] == "pierced"
    assert "relabeling" in rep["sequence"]


def test_toric_gb(runner):
    res = run(runner, "toric-gb", "--code", "[[],[1],[2],[1,2]]")
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["basis"] == ["y_{1}*y_{2} - y_{12}"]
    assert rep["max_degree"] == 2


def test_toric_gb_resource_cap_exit_3(runner):
    res = run(runner, "toric-gb", "--code", "[[],[1],[2],[3],[1,2,3]]",
              "--max-degree", "2")
    assert res.exit_code == 3
    assert json.loads(res.output)["status"] == "resource_cap"


def test_nesting(runner):
    res = run(runner, "nesting", "--sub", TWO,
              "--sup", "[[],[1],[1,2],[2],[1,3],[2,3],[3],[1,2,3]]")
    assert res.exit_code == 0
    assert json.loads(res.output)["nested_ideals"]


def test_realize_hyperplane(runner, tmp_path):
    svg = tmp_path / "arr.svg"
    res = run(runner, "realize", "--code", TWO, "--mode", "hyperplane",
              "--svg", str(svg))
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["verified"] and rep["dim"] == 2
    assert svg.read_text().startswith("<svg")


def test_realize_ball(runner):
    res = run(runner, "realize", "--code", TWO, "--mode", "ball",
              "--samples", "4096")
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["verified"]
    ver = rep["verification"]
    assert ver["exact"] and ver["upper_bound_ok"] and ver["witnesses_ok"]
    assert ver["samples"] == 4096 and ver["sampling_ok"]


def test_realize_ball_exact_by_default(runner):
    res = run(runner, "realize", "--code", FIG, "--mode", "ball")
    assert res.exit_code == 0
    ver = json.loads(res.output)["verification"]
    assert ver["exact"] and ver["upper_bound_ok"] and ver["samples"] == 0
    assert "sampling_ok" not in ver


def test_realize_ball_samples_power_of_two(runner):
    # scipy warns when a Sobol sample is not a power of 2; the count is
    # rounded up instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(runner, "realize", "--code", TWO, "--mode", "ball",
                  "--samples", "1000")
    assert res.exit_code == 0, res.output
    ver = json.loads(res.output)["verification"]
    assert ver["samples"] == 1024 and ver["sampling_is_probabilistic"]


def test_realize_not_pierced_exit_2(runner):
    res = run(runner, "realize", "--code", "[[1,2]]", "--mode", "hyperplane")
    assert res.exit_code == 2
    assert json.loads(res.output)["status"] == "not_pierced"


def test_realize_svg_requires_hyperplane(runner, tmp_path):
    res = run(runner, "realize", "--code", TWO, "--mode", "ball",
              "--svg", str(tmp_path / "x.svg"))
    assert res.exit_code == 1


def test_scan_conjecture_deterministic(runner):
    a = run(runner, "scan-conjecture", "--max-n", "3", "--max-k", "2")
    b = run(runner, "scan-conjecture", "--max-n", "3", "--max-k", "2")
    assert a.exit_code == 0 and a.output == b.output
    rep = json.loads(a.output)
    assert rep["violations"] == [] and rep["skipped"] == []
    assert "total_time_ms" not in rep


def test_scan_conjecture_timing_flag(runner):
    res = run(runner, "scan-conjecture", "--max-n", "2", "--max-k", "1",
              "--timing")
    assert "total_time_ms" in json.loads(res.output)


def test_counterexample(runner):
    res = run(runner, "counterexample")
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["direction_reproducing_cubics"] == "last_listed_most_significant"
    entry = rep["directions"]["last_listed_most_significant"]
    assert entry["max_degree"] == 3 and len(entry["cubics"]) == 2
    assert entry["basis_size"] == 17


def test_out_flag_writes_file(runner, tmp_path):
    out = tmp_path / "report.json"
    res = run(runner, "detect", "--code", TWO, "--out", str(out))
    assert res.exit_code == 0
    assert json.loads(out.read_text())["status"] == "pierced"
