"""Command-line interface: reports, exit codes, determinism."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner

import piercedcodes
from piercedcodes import balls, toric
from piercedcodes.balls import BallConstructionError
from piercedcodes.cli import main
from piercedcodes.piercing import ResourceCapExceeded

FIG = "[[],[1],[1,2],[2],[1,3],[1,2,3]]"
# pierced, but not in construction labels: {{}, 1, 2, 12, 23, 123} with
# labels 1, 2, 3 moved to 2, 3, 1
FIG_RELABELED = "[[],[3],[2,3],[2],[1,3],[1,2,3]]"
TWO = "[[],[1],[1,2],[2]]"

# `realize --mode hyperplane --code TWO`, byte for byte: reports are
# byte-stable, and every exact value in them is pinned here.
TWO_HYPERPLANE_REPORT = """\
{
  "code": "{{},1,12,2}",
  "dim": 2,
  "discrepancy": null,
  "margin": "5/112",
  "mode": "hyperplane",
  "realization": {
    "bound_vertices": [
      [
        "0",
        "0"
      ],
      [
        "2",
        "0"
      ],
      [
        "25/24",
        "1"
      ]
    ],
    "dim": 2,
    "halfspaces": [
      {
        "normal": [
          "1",
          "0"
        ],
        "offset": "1",
        "orientation": ">="
      },
      {
        "normal": [
          "0",
          "1"
        ],
        "offset": "3/4",
        "orientation": ">="
      }
    ],
    "trace": [
      {
        "a": "1/4",
        "height": "3/4",
        "p": [
          "1"
        ],
        "p_prime": [
          "25/24"
        ],
        "p_tilde": [
          "25/24",
          "1"
        ]
      }
    ],
    "witnesses": {
      "1": [
        "3/2",
        "1/4"
      ],
      "12": [
        "17/16",
        "13/16"
      ],
      "2": [
        "15/16",
        "13/16"
      ],
      "{}": [
        "1/2",
        "1/8"
      ]
    }
  },
  "verified": true
}
"""
TWO_SVG_LINES = [
    '<line x1="200.00" y1="400.00" x2="200.00" y2="160.00" stroke="steelblue"/>',
    '<line x1="0.00" y1="240.00" x2="400.00" y2="240.00" stroke="steelblue"/>',
]


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
    res = run(runner, "analyze", "--code", "[[],[1]]")
    rep = json.loads(res.output)
    assert rep["inductively_pierced"] and rep["piercing_sequence"] == {"steps": []}


@pytest.mark.parametrize("words, size, exit_code", [
    # not shellable in the codeword order: a complete report, exit 2
    ([[], [1], list(range(1, 31))], 29 ** 2, 2),
    # 30 disjoint circles, a pierced code
    ([[]] + [[i] for i in range(1, 31)], 30 * 29 // 2, 0),
])
def test_analyze_wide_sparse_code(runner, words, size, exit_code):
    # each polar complex has more than 2^30 faces
    res = run(runner, "analyze", "--code", json.dumps(words))
    assert res.exit_code == exit_code
    rep = json.loads(res.output)
    assert len(rep["canonical_form"]) == size
    assert rep["shelling_verified"] == (exit_code == 0)


def test_analyze_relabeled(runner):
    res = run(runner, "analyze", "--code", FIG_RELABELED)
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["inductively_pierced"] and rep["shelling_verified"]
    assert rep["piercing_sequence"]["relabeling"] == [2, 3, 1]
    # codewords ranked in construction labels, facets in the code's labels
    assert rep["shelling_order"] == ["---", "-+-", "-++", "--+", "+++", "+-+"]


@pytest.mark.parametrize("mode", ["hyperplane", "ball"])
def test_realize_relabeled(runner, mode):
    res = run(runner, "realize", "--code", FIG_RELABELED, "--mode", mode)
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert rep["verified"] and rep["relabeling"] == [2, 3, 1]


def test_analyze_from_file(runner, tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"neurons": 2, "codewords": [[], [1], [1, 2], [2]]}))
    res = run(runner, "analyze", "--input", str(path))
    assert res.exit_code == 0
    assert json.loads(res.output)["neurons"] == 2


def test_code_and_input_together_exit_1(runner, tmp_path):
    # a valid file next to --code is a usage error, not silently ignored
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"neurons": 2, "codewords": [[], [1], [2], [1, 2]]}))
    for args in (["--code", "[[],[1]]", "--input", str(path)],
                 ["--input", str(path), "--code", "[[],[1]]"]):
        res = run(runner, "detect", *args)
        assert res.exit_code == 1
        assert res.output.splitlines()[-1] == "Error: give exactly one of --input and --code"


def test_malformed_input_exit_1(runner):
    res = run(runner, "analyze", "--code", "not json")
    assert res.exit_code == 1
    res = run(runner, "analyze")
    assert res.exit_code == 1


MALFORMED_FILES = {
    "neurons_float.json": {"neurons": 2.7, "codewords": [[], [1], [1, 2]]},
    "neurons_bool.json": {"neurons": True, "codewords": [[], [1]]},
}


@pytest.mark.parametrize("args", [
    ["detect", "--code", "[[1.5]]"],
    ["detect", "--code", "[]"],
    ["analyze", "--code", '{"a":1}'],
    ["toric-gb", "--code", TWO, "--order", "wgrevlex", "--weights", "[1]"],
    ["toric-gb", "--code", TWO, "--order", "wgrevlex", "--weights", "notjson"],
    ["toric-gb", "--code", TWO, "--order", "lex", "--weights", "[1,2]"],
    ["toric-gb", "--code", "[[]]"],
    ["analyze", "--code", "[[],[0],[1]]"],
    # NaN compares false both ways and a negative weight puts a variable
    # below 1: neither gives a monomial order
    ["toric-gb", "--code", "[[],[1],[2],[1,2],[3],[1,3]]", "--order", "wgrevlex",
     "--weights", "[NaN,0,0,0,0]"],
    ["toric-gb", "--code", "[[],[1],[2],[1,2],[3],[1,3]]", "--order", "wgrevlex",
     "--weights", "[-1,0,0,0,0]"],
    ["toric-gb", "--code", "[[],[1],[2],[1,2],[3],[1,3]]", "--order", "wgrevlex",
     "--weights", "[Infinity,0,0,0,0]"],
    # step labels must be integers, though 1.0 == True == 1
    ["pierce", "--code", "[[],[1]]", "--lam", "[1.0]"],
    ["pierce", "--code", "[[],[1]]", "--lam", "[true]"],
    ["pierce", "--code", TWO, "--lam", "[1]", "--sigma", "[2.0]"],
    # TMP is a fresh directory holding the files of MALFORMED_FILES
    ["detect", "--input", "TMP"],
    ["detect", "--input", "TMP/neurons_float.json"],
    ["detect", "--input", "TMP/neurons_bool.json"],
    ["detect", "--code", "[[],[1]]", "--out", "TMP/missing/x.json"],
    ["realize", "--mode", "hyperplane", "--code", TWO, "--svg", "TMP/missing/x.svg"],
])
def test_malformed_input_one_line_error(runner, tmp_path, args):
    for name, content in MALFORMED_FILES.items():
        (tmp_path / name).write_text(json.dumps(content))
    res = run(runner, *(a.replace("TMP", str(tmp_path)) for a in args))
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:"), res.output


@pytest.mark.parametrize("args", [
    ["nesting", "--sub", "[[1,", "--sup", "[[],[1]]"],
    ["nesting", "--sub", "[[],[1]]", "--sup", "[[0]]"],
    ["detect", "--code", "[[1,"],
    # an inline code loads as it is parsed, ahead of a later usage error
    ["detect", "--code", "[[1,", "--max-k", "-1"],
], ids=["nesting-sub", "nesting-sup", "detect", "detect-usage"])
def test_malformed_inline_code_reported_first(runner, tmp_path, args):
    res = run(runner, *args, "--out", str(tmp_path / "missing" / "x.json"))
    assert res.exit_code == 1
    assert res.output.startswith("Error: malformed code input: "), res.output
    assert len(res.output.splitlines()) == 1


def _failing_ball_builder(monkeypatch):
    """Make every ball construction raise, as a numeric fault would."""
    def fail(seq, seed=None):
        raise BallConstructionError("spheres do not intersect transversally")
    monkeypatch.setattr(balls, "build_ball_realization", fail)


def test_ball_construction_error_one_line(runner, monkeypatch):
    _failing_ball_builder(monkeypatch)
    res = run(runner, "realize", "--mode", "ball", "--code", FIG)
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:"), res.output
    assert "Traceback" not in res.output


def test_in_process_reports_are_not_retained():
    # bench/run.py calls main once per operation with stdout redirected
    refs = []
    for _ in range(3):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["detect", "--code", TWO], standalone_mode=False)
        assert json.loads(buf.getvalue())["status"] == "pierced"
        refs.append(weakref.ref(buf))
        del buf
    gc.collect()
    assert all(r() is None for r in refs)


def test_ball_construction_error_raises_in_process(monkeypatch):
    # in-process callers (bench/run.py) tell this failure by its type
    _failing_ball_builder(monkeypatch)
    with pytest.raises(BallConstructionError):
        main(["realize", "--mode", "ball", "--code", FIG], standalone_mode=False)


def test_realize_ball_report_stable(runner):
    # the construction draws nothing at random, so without --samples the
    # report does not depend on --seed
    code = ("[[],[1],[1,2],[1,2,3],[1,2,3,4],[1,2,3,4,5],[1,2,3,5],"
            "[2],[2,3],[2,3,4],[2,3,4,5],[2,3,5]]")
    outputs = [run(runner, "realize", "--mode", "ball", "--code", code, *extra).output
               for extra in ([], [], ["--seed", "7"], ["--seed", "8"])]
    assert json.loads(outputs[0])["verified"]
    assert len(set(outputs)) == 1


@pytest.mark.parametrize("args", [
    ["detect", "--code", TWO, "--max-k", "abc"],
    ["realize", "--code", TWO, "--mode", "ball", "--samples", "0"],
    ["realize", "--code", TWO, "--mode", "ball", "--samples", "-5"],
    ["scan-conjecture", "--max-n", "2", "--jobs", "0"],
    ["scan-conjecture", "--max-n", "2", "--jobs", "-3"],
    ["scan-conjecture", "--max-n", "0"],
    ["scan-conjecture", "--max-k", "-1"],
    ["scan-conjecture", "--max-n", "2", "--max-pairs", "0"],
    ["toric-gb", "--code", TWO, "--max-degree", "-1"],
    ["toric-gb", "--code", TWO, "--max-pairs", "0"],
    ["detect", "--code", TWO, "--max-k", "-1"],
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
    # one neuron: pierced by the empty sequence
    res = run(runner, "detect", "--code", "[[],[1]]")
    rep = json.loads(res.output)
    assert rep["status"] == "pierced" and rep["sequence"] == {"steps": []}


def test_detect_relabel(runner):
    scrambled = "[[],[2],[2,3],[3],[1,2],[1,2,3]]"
    res = run(runner, "detect", "--code", scrambled)
    assert json.loads(res.output)["status"] == "not_pierced"
    res = run(runner, "detect", "--code", scrambled, "--relabel")
    rep = json.loads(res.output)
    assert rep["status"] == "pierced"
    assert "relabeling" in rep["sequence"]


def test_detect_relabel_fresh_process_n40():
    # three pairwise-overlapping circles with no triple word, beside 37
    # disjoint ones: every singleton neuron is removable, so a search over
    # removal orders would visit about 2^40 label sets
    words = [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], *[[i] for i in range(4, 41)]]
    src = str(Path(piercedcodes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run(
        [sys.executable, "-m", "piercedcodes.cli", "detect", "--relabel",
         "--code", json.dumps(words)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["status"] == "not_pierced"


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
    # with y_{i} for x_i the cubic y_{1}*y_{2}*y_{3} - y_{123} is a graph
    # binomial, so the cap fires before any element joins
    assert json.loads(res.output) == {
        "status": "resource_cap",
        "detail": "degree cap 2 exceeded after 0 S-pairs processed (cut: 0 coprime, "
                  "0 by criterion B, 0 by criteria M/F), 0 zero reductions, peak basis size 0",
    }


def test_nesting(runner):
    res = run(runner, "nesting", "--sub", TWO,
              "--sup", "[[],[1],[1,2],[2],[1,3],[2,3],[3],[1,2,3]]")
    assert res.exit_code == 0
    assert json.loads(res.output)["nested_ideals"]


def test_nesting_basis_outside_kernel_exit_2(runner, monkeypatch):
    def outside(self, order, *a, **kw):
        y1, y2 = (self.ring.monomial({frozenset({i}): 1}) for i in (1, 2))
        return [toric.oriented(y1, y2, order)]

    monkeypatch.setattr(toric.ToricIdeal, "reduced_groebner_basis", outside)
    res = run(runner, "nesting", "--sub", TWO, "--sup", FIG)
    assert res.exit_code == 2
    assert json.loads(res.output)["nested_ideals"] is False


def test_realize_hyperplane(runner, tmp_path):
    svg = tmp_path / "arr.svg"
    res = run(runner, "realize", "--code", TWO, "--mode", "hyperplane",
              "--svg", str(svg))
    assert res.exit_code == 0
    assert res.output == TWO_HYPERPLANE_REPORT
    picture = svg.read_text()
    assert picture.startswith("<svg")
    assert [x for x in picture.splitlines() if x.startswith("<line")] == TWO_SVG_LINES


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
    assert not any("time_ms" in e for e in rep["results"])


def test_scan_conjecture_timing_flag(runner):
    res = run(runner, "scan-conjecture", "--max-n", "2", "--max-k", "1",
              "--timing")
    rep = json.loads(res.output)
    assert "total_time_ms" in rep
    assert all("time_ms" in e for e in rep["results"])


def test_import_does_not_load_scipy():
    # only the opt-in `realize --samples` cross-check needs scipy
    src = str(Path(piercedcodes.__file__).resolve().parents[1])
    probe = "import sys, piercedcodes.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_counterexample(runner):
    res = run(runner, "counterexample")
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["direction_reproducing_cubics"] == "last_listed_most_significant"
    entry = rep["directions"]["last_listed_most_significant"]
    assert entry["max_degree"] == 3 and len(entry["cubics"]) == 2
    assert entry["basis_size"] == 17


EVERY_SUBCOMMAND = pytest.mark.parametrize("args", [
    ["analyze", "--code", TWO],
    ["pierce", "--code", TWO, "--lam", "[2]", "--sigma", "[1]"],
    ["detect", "--code", TWO],
    ["toric-gb", "--code", TWO],
    ["nesting", "--sub", TWO, "--sup", FIG],
    ["realize", "--code", TWO, "--mode", "hyperplane"],
    ["scan-conjecture", "--max-n", "2"],
    ["counterexample"],
], ids=lambda args: args[0])


@EVERY_SUBCOMMAND
def test_out_flag_writes_file(runner, tmp_path, args):
    printed = run(runner, *args)
    out = tmp_path / "report.json"
    res = run(runner, *args, "--out", str(out))
    assert res.exit_code == printed.exit_code == 0
    assert res.output == ""
    assert out.read_text() == printed.output


@EVERY_SUBCOMMAND
def test_unwritable_out_fails_before_the_body(runner, tmp_path, monkeypatch, args):
    def scan(*a, **kw):
        raise AssertionError("the scan ran before --out was checked")

    monkeypatch.setattr(toric, "conjecture_scan", scan)
    out = tmp_path / "missing" / "x.json"
    res = run(runner, *args, "--out", str(out))
    assert res.exit_code == 1
    assert res.output == f"Error: cannot write {out}: No such file or directory\n"


def test_failed_body_keeps_out_file(runner, tmp_path):
    kept, new = tmp_path / "kept.json", tmp_path / "new.json"
    kept.write_bytes(b"earlier report\n")
    for out in (kept, new):
        res = run(runner, "pierce", "--code", TWO, "--lam", "[9]", "--out", str(out))
        assert res.exit_code == 1
    assert kept.read_bytes() == b"earlier report\n"
    assert new.read_bytes() == b""


@pytest.mark.parametrize("args", [
    ["nesting", "--sub", TWO, "--sup", FIG],
    ["counterexample"],
], ids=lambda args: args[0])
def test_basis_resource_cap_exit_3(runner, monkeypatch, args):
    def capped(self, *a, **kw):
        raise ResourceCapExceeded("more than 1 S-pairs reduced")

    monkeypatch.setattr(toric.ToricIdeal, "reduced_groebner_basis", capped)
    res = run(runner, *args)
    assert res.exit_code == 3
    assert json.loads(res.output) == {"status": "resource_cap",
                                      "detail": "more than 1 S-pairs reduced"}
