"""Run one benchmark workload of the piercedcodes CLI and print its metrics.

    python3 bench/run.py --workload scan-lex --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
A run builds the workload's seeded list of operations (set-up), then
repeats the whole list in rounds until ``--seconds`` have passed.  Each
operation is one in-process call of the CLI, report printing included.
After the timed rounds every first-round report is checked against an
independent computation (``oracles.py``), every later round must give
the same outcome, and an operation may fail only in the one expected
way.  With ``--trace 0`` the set-up is then timed twice more, each
time in a fresh process.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
first round untraced and the rest with spans around the program's
layers (``tracing.py``), and prints the per-layer metrics per round,
plus the tracing overhead against the untraced round.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
goes to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is timed once in this process, as it happens before the first
# timed operation, and SETUP_REPS - 1 more times in fresh processes
# after the timed rounds; setup_s is the median of these cold set-ups.
SETUP_REPS = 3

# The one way an operation of the list may fail (see workloads.py).
EXPECTED_ERROR = "BallConstructionError"

UNITS = {"codes_per_s": "1/s", "code_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_names() -> list:
    """Per-layer metric names in report order, with their units."""
    from tracing import TRACED

    names = []
    for span in TRACED.values():
        names.append((span + ".s", "s"))
    names += [
        ("toric.buchberger.calls", "count"),
        ("toric.basis_elements", "count"),
        ("exactlp.max_slack.calls", "count"),
        ("exactlp.solve_linear.calls", "count"),
        ("hyperplane.bound_inequalities.calls", "count"),
        ("balls.verify_ball_realization.samples", "count"),
        ("neural_ideal.canonical_form.calls", "count"),
        ("piercing.recover_piercing_sequence.calls", "count"),
        ("piercing.enumerate_pierced_codes.codes", "count"),
        ("cli.self.s", "s"),
        ("cli.op.s", "s"),
        ("trace.overhead", "%"),
    ]
    return names


def run_op(cli, op, tracer=None):
    """Call the CLI once; return (seconds, exit code or None, stdout, error)."""
    buf = io.StringIO()
    code, error = 0, None
    t0 = perf_counter()
    span = tracer.span("cli") if tracer is not None else None
    try:
        with contextlib.redirect_stdout(buf):
            cli.main(list(op.argv), standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the operation failed; the run goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        if span is not None:
            tracer.close(span)
    return perf_counter() - t0, code, buf.getvalue(), error


def quantile_ms(seconds: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``seconds``, in ms.

    A weighted mean of all order statistics, with weights from a beta
    distribution centred on the quantile: steadier than a plain
    percentile, which reads one or two operations and so takes their
    timing noise whole.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(seconds)) * 1000
    n = len(x)
    w = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(w @ x)


def completed(code) -> bool:
    # exit 2 still prints a full report (a property is false); the
    # checker decides whether that answer is right
    return code in (0, 2)


def set_up(workload: str, seed: int, trace: bool):
    """Import the CLI, build the input list, run the warm-up operation.

    Returns (cli, ops, tracer, seconds); exits 2 if the warm-up fails.
    """
    t0 = perf_counter()
    from piercedcodes import cli
    from tracing import Tracer
    from workloads import WORKLOADS, warmup_op

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
        tracer.phase = "setup"
    ops = WORKLOADS[workload](seed)
    _, code, _, error = run_op(cli, warmup_op(workload))
    seconds = perf_counter() - t0
    if code != 0:
        print(f"bench: warm-up failed ({error or code})", file=sys.stderr)
        sys.exit(2)
    return cli, ops, tracer, seconds


def cold_set_up(args) -> float:
    """Time one more set-up in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print its seconds and stop")
    args = parser.parse_args(argv)

    if not (SRC / "piercedcodes" / "cli.py").is_file():
        print(f"bench: no program source at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    ncpu = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = ncpu
    sys.path.insert(0, str(SRC))

    cli, ops, tracer, setup_here = set_up(args.workload, args.seed, bool(args.trace))
    if args.setup_only:
        print(setup_here)
        return 0

    first = [None] * len(ops)
    times = []           # seconds of every completed operation
    op_ms = [[] for _ in ops]
    bad = {}             # op index -> why its outcome is wrong
    attempted = failed = rounds = 0
    round_s = []
    t_start = perf_counter()
    while True:
        traced = tracer is not None and rounds > 0
        if tracer is not None:
            tracer.enabled = traced
            tracer.phase = rounds
        r0 = perf_counter()
        for i, op in enumerate(ops):
            sec, code, text, error = run_op(cli, op, tracer if traced else None)
            attempted += 1
            if completed(code):
                times.append(sec)
            else:
                failed += 1
                if not (op.expect_failure and error and error.startswith(EXPECTED_ERROR)):
                    bad.setdefault(i, f"failed: {error or f'exit {code}'}")
            op_ms[i].append(round(sec * 1000, 3))
            if first[i] is None:
                first[i] = (code, text, error)
            elif first[i] != (code, text, error):
                bad.setdefault(i, "outcome changed between rounds")
        round_s.append(perf_counter() - r0)
        rounds += 1
        if perf_counter() - t_start >= args.seconds and (tracer is None or rounds >= 2):
            break
    timed_s = perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # outside the timed region: independent checks of the first round
    import oracles

    reports = [None] * len(ops)
    for i, (op, (code, text, _)) in enumerate(zip(ops, first)):
        if not completed(code):
            continue
        try:
            reports[i] = json.loads(text)
            oracles.check(op, reports[i], seed=(args.seed % 2**32) * 1000 + i)
        except (oracles.CheckFailed, KeyError, TypeError, ValueError) as exc:
            bad.setdefault(i, f"{type(exc).__name__}: {exc}")
    for i, why in sorted(bad.items()):
        print(f"bench: op {i} {' '.join(ops[i].argv[:3])}: {why}", file=sys.stderr)
    passed_per_round = sum(
        1 for i, (code, _, _) in enumerate(first) if completed(code) and i not in bad)

    setups = [setup_here]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops": len(ops), "rounds": rounds, "round_s": round_s,
              "setup_s": setups, "bad": bad,
              "op_ms": [{"argv": list(op.argv[:-1]), "ms": t} for op, t in zip(ops, op_ms)]}
    if tracer is None:
        setups += [cold_set_up(args) for _ in range(SETUP_REPS - 1)]
        metrics = {
            "codes_per_s": passed_per_round * rounds / timed_s,
            "code_ms_p50": quantile_ms(times, 0.5),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = UNITS
    else:
        metrics = layer_metrics(tracer, ops, reports, rounds, round_s)
        units = dict(per_layer_names())
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, ops, reports, rounds, round_s) -> dict:
    """Per-layer metrics, per round of the list (per set-up for
    enumeration, which runs only in set-up)."""
    traced = rounds - 1
    in_rounds = tracer.totals(lambda phase: isinstance(phase, int))
    in_setup = tracer.totals(lambda phase: phase == "setup")
    out = {}
    for name, unit in per_layer_names():
        out[name] = 0.0 if unit != "count" else 0
    for span, (self_s, calls, _) in in_rounds.items():
        if span == "cli":
            continue
        out[span + ".s"] = self_s / traced
        if span + ".calls" in out:
            out[span + ".calls"] = calls // traced
    enum = in_setup.get("piercing.enumerate_pierced_codes", [0.0, 0, 0])
    out["piercing.enumerate_pierced_codes.s"] = enum[0]
    out["piercing.enumerate_pierced_codes.codes"] = enum[2]
    out["cli.self.s"] = in_rounds.get("cli", [0.0])[0] / traced
    op_total = sum(e - s for name, s, e, parent, phase, _ in tracer.spans
                   if name == "cli" and isinstance(phase, int))
    out["cli.op.s"] = op_total / traced
    out["trace.overhead"] = 100.0 * (statistics.mean(round_s[1:]) / round_s[0] - 1.0)
    out["toric.basis_elements"] = sum(
        len(r["basis"]) for op, r in zip(ops, reports) if r and op.kind == "toric")
    out["balls.verify_ball_realization.samples"] = sum(
        r["verification"]["samples"] for op, r in zip(ops, reports)
        if r and op.kind == "ball")
    return out


if __name__ == "__main__":
    sys.exit(main())
