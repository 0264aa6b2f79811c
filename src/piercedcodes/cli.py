"""Command-line front end; every subcommand emits a single JSON report.

Exit codes: 0 success, 1 malformed input, 2 a checked property is
false, 3 a resource cap was hit.  Reports are byte-identical across
runs with the same flags; pass --timing to include wall-clock fields.
"""

from __future__ import annotations

import json
import sys

import click

from . import balls, complexes, hyperplane, neural_ideal, toric
from .codes import NeuralCode, word_str
from .piercing import (
    PiercingStep,
    ResourceLimitExceeded,
    is_pierceable,
    pierce,
    recover_piercing_sequence,
)

EXIT_OK, EXIT_BAD_INPUT, EXIT_VIOLATION, EXIT_RESOURCE = 0, 1, 2, 3


class CliError(click.ClickException):
    def __init__(self, message, exit_code):
        super().__init__(message)
        self.exit_code = exit_code


def _load_code(input_path, inline):
    try:
        if inline is not None:
            words = json.loads(inline)
            if not (isinstance(words, list) and all(isinstance(w, list) for w in words)):
                raise ValueError("expected a JSON list of codewords")
            n = max((max(w, default=0) for w in words), default=0)
            c = NeuralCode(n, frozenset(frozenset(w) for w in words))
        elif input_path is not None:
            with open(input_path) as fh:
                c = NeuralCode.from_json_dict(json.load(fh))
        else:
            raise CliError("provide --input or --code", EXIT_BAD_INPUT)
        if not c.words:
            raise ValueError("the code has no codewords")
        if any(0 in w for w in c.words):
            raise ValueError("neuron labels must be 1 or more")
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"malformed code input: {exc}", EXIT_BAD_INPUT)
    return c


def _emit(report: dict, out):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_timing(v)
            for k, v in obj.items()
            if k not in ("time_ms", "total_time_ms")
        }
    if isinstance(obj, list):
        return [_strip_timing(x) for x in obj]
    return obj


code_opts = [
    click.option("--input", "input_path", type=click.Path(exists=True), default=None,
                 help="JSON file with {\"neurons\": n, \"codewords\": [[..]]}"),
    click.option("--code", "inline", default=None,
                 help="inline JSON list of codewords, e.g. '[[],[1],[1,2]]'"),
]


def with_code_opts(f):
    for opt in reversed(code_opts):
        f = opt(f)
    return f


def _usage_error_exits_1(method):
    def wrapped(*args, **kwargs):
        try:
            return method(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_BAD_INPUT
            raise

    return wrapped


class _Main(click.Group):
    """Usage errors are malformed input (exit 1); click's 2 means "property false" here."""

    make_context = _usage_error_exits_1(click.Group.make_context)
    invoke = _usage_error_exits_1(click.Group.invoke)


@click.group(cls=_Main)
def main():
    """Construct and certify inductively pierced neural codes."""


@main.command()
@with_code_opts
@click.option("--max-k", default=3, show_default=True)
@click.option("--out", default=None)
def analyze(input_path, inline, max_k, out):
    """Canonical form, complexes, shelling, and piercedness of one code."""
    c = _load_code(input_path, inline)
    cf = neural_ideal.canonical_form(c)
    delta = complexes.simplicial_complex_of(c)
    comps = complexes.connected_components(delta)
    vd = [complexes.is_vertex_decomposable(k)[0] for k in comps]
    gamma = complexes.polar_complex_of(c)
    order = complexes.shelling_order(c)
    shelling_ok, witness = complexes.verify_shelling(gamma.as_complex(), order)
    seq = recover_piercing_sequence(c, max_k)
    report = {
        "code": str(c),
        "neurons": c.n,
        "codewords": [sorted(w) for w in c.sorted_words()],
        "canonical_form": [pm.to_json_dict() for pm in cf],
        "canonical_form_pretty": [str(pm) for pm in cf],
        "cf_max_degree": max((pm.degree for pm in cf), default=0),
        "intersection_complete": neural_ideal.is_intersection_complete(c),
        "clique_complex": complexes.is_clique_complex(delta),
        "vertex_decomposable_components": vd,
        "shelling_order": [complexes.facet_str(f) for f in order],
        "shelling_verified": shelling_ok,
        "shelling_failure": witness,
        "inductively_pierced": seq is not None,
        "piercing_sequence": seq.to_json_dict() if seq else None,
    }
    _emit(report, out)
    if not shelling_ok:
        sys.exit(EXIT_VIOLATION)


@main.command(name="pierce")
@with_code_opts
@click.option("--lam", required=True, help="JSON list, e.g. '[1,2]'")
@click.option("--sigma", default="[]")
@click.option("--tau", default="[]")
@click.option("--out", default=None)
def pierce_cmd(input_path, inline, lam, sigma, tau, out):
    """Apply one piercing step to a code."""
    c = _load_code(input_path, inline)
    try:
        step = PiercingStep(
            frozenset(json.loads(lam)),
            frozenset(json.loads(sigma)),
            frozenset(json.loads(tau)),
        )
        step.validate_for(c.n)
    except (ValueError, TypeError) as exc:
        raise CliError(f"malformed step: {exc}", EXIT_BAD_INPUT)
    if not is_pierceable(c, step):
        _emit({"pierceable": False, "code": str(c)}, out)
        sys.exit(EXIT_VIOLATION)
    result = pierce(c, step)
    _emit(
        {"pierceable": True, "result": result.to_json_dict(), "result_str": str(result)},
        out,
    )


@main.command()
@with_code_opts
@click.option("--max-k", default=3, show_default=True)
@click.option("--relabel", is_flag=True)
@click.option("--out", default=None)
def detect(input_path, inline, max_k, relabel, out):
    """Recover a piercing sequence, or report NotPierced."""
    c = _load_code(input_path, inline)
    seq = recover_piercing_sequence(c, max_k, relabel)
    report = {
        "code": str(c),
        "status": "pierced" if seq is not None else "not_pierced",
        "sequence": seq.to_json_dict() if seq else None,
    }
    _emit(report, out)


@main.command(name="toric-gb")
@with_code_opts
@click.option("--order", "order_kind", type=click.Choice(["lex", "wgrevlex"]), default="lex")
@click.option("--weights", default=None, help="JSON weight vector over the codeword ring")
@click.option("--max-pairs", default=200_000, show_default=True)
@click.option("--max-degree", default=60, show_default=True)
@click.option("--out", default=None)
def toric_gb(input_path, inline, order_kind, weights, max_pairs, max_degree, out):
    """Reduced Groebner basis of the toric ideal."""
    c = _load_code(input_path, inline)
    if not any(c.words):
        raise CliError("malformed code input: no nonempty codeword", EXIT_BAD_INPUT)
    try:
        w = json.loads(weights) if weights else None
        if w is not None and not (isinstance(w, list) and all(type(x) in (int, float) for x in w)):
            raise ValueError("expected a JSON list of numbers")
        order = toric.order_for(toric.codeword_ring(c), order_kind, w)
    except ValueError as exc:
        raise CliError(f"malformed weights: {exc}", EXIT_BAD_INPUT)
    try:
        ideal = toric.toric_ideal(c, max_pairs=max_pairs, max_degree=max_degree)
        gb = ideal.reduced_groebner_basis(order, max_pairs=max_pairs, max_degree=max_degree)
    except toric.ResourceCapExceeded as exc:
        _emit({"status": "resource_cap", "detail": str(exc)}, out)
        sys.exit(EXIT_RESOURCE)
    _emit(
        {
            "code": str(c),
            "order": order_kind,
            "basis": [g.as_str(ideal.ring) for g in gb],
            "max_degree": toric.gb_max_degree(ideal, order),
        },
        out,
    )


@main.command()
@click.option("--sub", required=True, help="inline JSON codeword list of the subcode")
@click.option("--sup", required=True, help="inline JSON codeword list of the supercode")
@click.option("--out", default=None)
def nesting(sub, sup, out):
    """Check toric-ideal containment for nested codes."""
    a = _load_code(None, sub)
    b = _load_code(None, sup)
    try:
        ok = toric.check_nesting(a, b)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_INPUT)
    _emit({"sub": str(a), "sup": str(b), "nested_ideals": ok}, out)
    if not ok:
        sys.exit(EXIT_VIOLATION)


@main.command()
@with_code_opts
@click.option("--mode", type=click.Choice(["hyperplane", "ball"]), required=True)
@click.option("--max-k", default=3, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=None,
              help="ball mode: also cross-check with a Sobol sample of at least this "
                   "many points (a power of 2 is drawn); probabilistic, can only fail")
@click.option("--seed", default=7, show_default=True)
@click.option("--svg", "svg_path", default=None,
              help="write an SVG picture (2-D hyperplane arrangements only)")
@click.option("--out", default=None)
def realize(input_path, inline, mode, max_k, samples, seed, svg_path, out):
    """Build and verify a geometric realization of a pierced code."""
    if svg_path and mode != "hyperplane":
        raise CliError("--svg is only available in hyperplane mode", EXIT_BAD_INPUT)
    c = _load_code(input_path, inline)
    seq = recover_piercing_sequence(c, max_k)
    if seq is None:
        _emit({"code": str(c), "status": "not_pierced"}, out)
        sys.exit(EXIT_VIOLATION)
    if mode == "hyperplane":
        r = hyperplane.build_hyperplane_realization(seq)
        ok, witness = hyperplane.verify_hyperplane_realization(r, c)
        report = {
            "code": str(c),
            "mode": mode,
            "dim": r.dim,
            "verified": ok,
            "discrepancy": witness,
            "margin": str(hyperplane.nondegeneracy_margin(r)) if ok else None,
            "realization": r.to_json_dict(),
        }
        if svg_path:
            if r.dim != 2:
                raise CliError("--svg needs a 2-D arrangement", EXIT_BAD_INPUT)
            with open(svg_path, "w") as fh:
                fh.write(hyperplane.arrangement_svg(r) + "\n")
    else:
        r = balls.build_ball_realization(seq, seed=seed)
        rep = balls.verify_ball_realization(r, c, samples=samples or 0, seed=seed)
        report = {
            "code": str(c),
            "mode": mode,
            "dim": r.dim,
            "verified": rep["ok"],
            "verification": rep,
            "realization": r.to_json_dict(),
        }
        ok = rep["ok"]
    _emit(report, out)
    if not ok:
        sys.exit(EXIT_VIOLATION)


@main.command(name="scan-conjecture")
@click.option("--max-n", default=4, show_default=True)
@click.option("--max-k", default=2, show_default=True)
@click.option("--order", "order_kind", type=click.Choice(["lex", "wgrevlex"]), default="lex")
@click.option("--max-pairs", default=200_000, show_default=True)
@click.option("--max-degree", default=60, show_default=True)
@click.option("--jobs", default=1, show_default=True)
@click.option("--timing", is_flag=True, help="include wall-clock fields in the report")
@click.option("--out", default=None)
def scan_conjecture(max_n, max_k, order_kind, max_pairs, max_degree, jobs, timing, out):
    """Max GB degree under the chosen order for every enumerated pierced code."""
    try:
        report = toric.conjecture_scan(
            max_n, max_k, order_kind, max_pairs=max_pairs, max_degree=max_degree,
            jobs=jobs,
        )
    except ResourceLimitExceeded as exc:
        _emit({"status": "resource_cap", "detail": str(exc)}, out)
        sys.exit(EXIT_RESOURCE)
    if not timing:
        report = _strip_timing(report)
    _emit(report, out)
    if report["violations"]:
        sys.exit(EXIT_VIOLATION)
    if report["skipped"]:
        sys.exit(EXIT_RESOURCE)


@main.command()
@click.option("--out", default=None)
def counterexample(out):
    """The shelling-order lex counterexample code, end to end."""
    words = [
        [1, 3, 4], [1, 3], [3], [], [1], [1, 2], [3, 4], [2, 3, 4],
        [1, 2, 3, 4], [1, 2, 3], [4],
    ]
    c = NeuralCode(4, frozenset(frozenset(w) for w in words))
    h = toric.homogenize_with_dummy(c)
    listing = [frozenset(w) | {0} for w in words]
    ideal = toric.toric_ideal(h)
    directions = {}
    matched = None
    for ascending in (True, False):
        order = toric.ListedLexOrder(ideal.ring, listing, ascending=ascending)
        gb = ideal.reduced_groebner_basis(order)
        cubics = [g.as_str(ideal.ring) for g in gb if g.degree == 3]
        entry = {
            "basis_size": len(gb),
            "max_degree": toric.gb_max_degree(ideal, order),
            "cubics": cubics,
            "basis": [g.as_str(ideal.ring) for g in gb],
        }
        key = "last_listed_most_significant" if ascending else "first_listed_most_significant"
        directions[key] = entry
        if entry["max_degree"] == 3 and len(cubics) == 2 and matched is None:
            matched = key
    report = {
        "code": str(c),
        "homogenized": str(h),
        "shelling_order_listing": [word_str(w) for w in listing],
        "directions": directions,
        "direction_reproducing_cubics": matched,
    }
    _emit(report, out)
    if matched is None:
        sys.exit(EXIT_VIOLATION)


if __name__ == "__main__":
    main()
