"""Command-line front end; every subcommand emits a single JSON report.

Each subcommand's body returns its report and exit code, and
``report_command`` writes the one and exits with the other.  Exit
codes: 0 success, 1 malformed input or a failed ball construction,
2 a checked property is false, 3 a resource cap was hit.  Reports are
byte-identical across runs with the same flags; pass --timing to include
wall-clock fields.
"""

from __future__ import annotations

import json
import sys

import click

from . import balls, complexes, hyperplane, neural_ideal, toric
from .codes import NeuralCode, word_str
from .piercing import (
    PiercingStep,
    ResourceCapExceeded,
    is_pierceable,
    pierce,
    recover_piercing_sequence,
)

EXIT_OK, EXIT_BAD_INPUT, EXIT_VIOLATION, EXIT_RESOURCE = 0, 1, 2, 3


def _validated(load, source):
    """``load(source)``, a code with a codeword and labels from 1, or a one-line error."""
    try:
        c = load(source)
        if not c.words:
            raise ValueError("the code has no codewords")
        if any(0 in w for w in c.words):
            raise ValueError("neuron labels must be 1 or more")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise click.ClickException(f"malformed code input: {exc}")
    return c


def _parse_code(text):
    words = json.loads(text)
    if not (isinstance(words, list) and all(isinstance(w, list) for w in words)):
        raise ValueError("expected a JSON list of codewords")
    n = max((max(w, default=0) for w in words), default=0)
    return NeuralCode(n, frozenset(frozenset(w) for w in words))


def _read_code(path):
    with open(path) as fh:
        return NeuralCode.from_json_dict(json.load(fh))


def _inline_code(ctx, param, text):
    """Click callback: an inline code loads as the command line is parsed."""
    return None if text is None else _validated(_parse_code, text)


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc.strerror}")


def _labels(text):
    labels = json.loads(text)
    if not (isinstance(labels, list) and all(type(i) is int for i in labels)):
        raise ValueError("expected a JSON list of integer neuron labels")
    return frozenset(labels)


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

    def main(self, *args, standalone_mode=True, **kwargs):
        """A failed ball construction is a one-line error with exit 1 on the
        command line; in-process callers get the exception itself."""
        try:
            return super().main(*args, standalone_mode=standalone_mode, **kwargs)
        except balls.BallConstructionError as exc:
            if not standalone_mode:
                raise
            click.echo(f"Error: {exc}", err=True)
            sys.exit(EXIT_BAD_INPUT)


@click.group(cls=_Main)
def main():
    """Construct and certify inductively pierced neural codes."""


def report_command(name=None, takes_code=False):
    """Register a subcommand whose body returns (report, exit code).

    The command takes --out, and with ``takes_code`` also --input and
    --code, exactly one of which gives the code the body gets as ``c``.
    An inline code loads as the command line is parsed, a file after that;
    then --out is checked, then the body runs.  A resource cap that the
    body hits becomes a ``resource_cap`` report with exit 3.
    """

    def register(body):
        params = [
            click.Option(["--input", "input_path"], type=click.Path(exists=True),
                         help="JSON file with {\"neurons\": n, \"codewords\": [[..]]}"),
            click.Option(["--code", "inline"], callback=_inline_code,
                         help="inline JSON list of codewords, e.g. '[[],[1],[1,2]]'"),
        ] if takes_code else []
        command = main.command(name=name, params=params)(body)
        command.params.append(click.Option(["--out"]))

        def run(out, input_path=None, inline=None, **kwargs):
            if takes_code:
                if (inline is None) == (input_path is None):
                    raise click.UsageError("give exactly one of --input and --code")
                kwargs["c"] = inline if inline is not None else _validated(_read_code, input_path)
            if out:
                # an unwritable path fails before the body runs; appending keeps an
                # existing file's bytes, and _write, not a truncate, replaces them later,
                # since a pipe (--out /dev/stdout) cannot be truncated
                try:
                    open(out, "a").close()
                except OSError as exc:
                    raise click.ClickException(f"cannot write {out}: {exc.strerror}")
            try:
                report, exit_code = body(**kwargs)
            except ResourceCapExceeded as exc:
                report, exit_code = {"status": "resource_cap", "detail": str(exc)}, EXIT_RESOURCE
            text = json.dumps(report, indent=2, sort_keys=True)
            if out:
                _write(out, text)
            else:
                # with no file, click caches a wrapper per stdout object and keeps
                # each one alive, so in-process callers that redirect stdout leak
                click.echo(text, file=sys.stdout)
            if exit_code:
                sys.exit(exit_code)

        command.callback = run
        return command

    return register


@report_command(takes_code=True)
@click.option("--max-k", type=click.IntRange(min=0), default=3, show_default=True)
def analyze(c, max_k):
    """Canonical form, complexes, shelling, and piercedness of one code."""
    cf = neural_ideal.canonical_form(c)
    delta = complexes.simplicial_complex_of(c)
    comps = complexes.connected_components(delta)
    vd = [complexes.is_vertex_decomposable(k)[0] for k in comps]
    seq = recover_piercing_sequence(c, max_k, relabel=True)
    order = complexes.shelling_order(c, seq)
    shelling_ok, witness = complexes.verify_shelling(complexes.polar_complex_of(c), order)
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
        "piercing_sequence": seq.to_json_dict() if seq is not None else None,
    }
    return report, EXIT_OK if shelling_ok else EXIT_VIOLATION


@report_command(name="pierce", takes_code=True)
@click.option("--lam", required=True, help="JSON list, e.g. '[1,2]'")
@click.option("--sigma", default="[]")
@click.option("--tau", default="[]")
def pierce_cmd(c, lam, sigma, tau):
    """Apply one piercing step to a code."""
    try:
        step = PiercingStep(_labels(lam), _labels(sigma), _labels(tau))
        step.validate_for(c.n)
    except ValueError as exc:
        raise click.ClickException(f"malformed step: {exc}")
    if not is_pierceable(c, step):
        return {"pierceable": False, "code": str(c)}, EXIT_VIOLATION
    result = pierce(c, step)
    report = {"pierceable": True, "result": result.to_json_dict(), "result_str": str(result)}
    return report, EXIT_OK


@report_command(takes_code=True)
@click.option("--max-k", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--relabel", is_flag=True)
def detect(c, max_k, relabel):
    """Recover a piercing sequence, or report NotPierced."""
    seq = recover_piercing_sequence(c, max_k, relabel)
    report = {
        "code": str(c),
        "status": "pierced" if seq is not None else "not_pierced",
        "sequence": seq.to_json_dict() if seq is not None else None,
    }
    return report, EXIT_OK


@report_command(takes_code=True)
@click.option("--order", "order_kind", type=click.Choice(["lex", "wgrevlex"]), default="lex")
@click.option("--weights", default=None, help="JSON weight vector over the codeword ring")
@click.option("--max-pairs", type=click.IntRange(min=1), default=toric.MAX_PAIRS,
              show_default=True,
              help="cap on the S-pairs reduced, after the coprime and Gebauer-Moeller criteria")
@click.option("--max-degree", type=click.IntRange(min=1), default=toric.MAX_DEGREE,
              show_default=True)
def toric_gb(c, order_kind, weights, max_pairs, max_degree):
    """Reduced Groebner basis of the toric ideal."""
    if not any(c.words):
        raise click.ClickException("malformed code input: no nonempty codeword")
    try:
        if weights is not None and order_kind == "lex":
            raise ValueError("lex order takes no weights")
        w = json.loads(weights) if weights else None
        if w is not None and not (isinstance(w, list) and all(type(x) in (int, float) for x in w)):
            raise ValueError("expected a JSON list of numbers")
        order = toric.order_for(toric.codeword_ring(c), order_kind, w)
    except ValueError as exc:
        raise click.ClickException(f"malformed weights: {exc}")
    ideal = toric.toric_ideal(c)
    gb = ideal.reduced_groebner_basis(order, max_pairs=max_pairs, max_degree=max_degree)
    report = {
        "code": str(c),
        "order": order_kind,
        "basis": [g.as_str(ideal.ring) for g in gb],
        "max_degree": toric.gb_max_degree(gb),
    }
    return report, EXIT_OK


@report_command()
@click.option("--sub", required=True, callback=_inline_code,
              help="inline JSON codeword list of the subcode")
@click.option("--sup", required=True, callback=_inline_code,
              help="inline JSON codeword list of the supercode")
def nesting(sub, sup):
    """Check toric-ideal containment for nested codes."""
    try:
        ok = toric.check_nesting(sub, sup)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    return {"sub": str(sub), "sup": str(sup), "nested_ideals": ok}, EXIT_OK if ok else EXIT_VIOLATION


@report_command(takes_code=True)
@click.option("--mode", type=click.Choice(["hyperplane", "ball"]), required=True)
@click.option("--max-k", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=None,
              help="ball mode: also cross-check with a Sobol sample of at least this "
                   "many points (a power of 2 is drawn); probabilistic, can only fail")
@click.option("--seed", default=7, show_default=True,
              help="ball mode: seeds the --samples cross-check only")
@click.option("--svg", "svg_path", default=None,
              help="write an SVG picture (2-D hyperplane arrangements only)")
def realize(c, mode, max_k, samples, seed, svg_path):
    """Build and verify a geometric realization of a pierced code."""
    if svg_path and mode != "hyperplane":
        raise click.ClickException("--svg is only available in hyperplane mode")
    seq = recover_piercing_sequence(c, max_k, relabel=True)
    if seq is None:
        return {"code": str(c), "status": "not_pierced"}, EXIT_VIOLATION
    # the realization is built, and so checked, in construction labels
    built = NeuralCode(c.n, frozenset(map(seq.construction_word, c.words)))
    if mode == "hyperplane":
        r = hyperplane.build_hyperplane_realization(seq)
        ok, witness = hyperplane.verify_hyperplane_realization(r, built)
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
                raise click.ClickException("--svg needs a 2-D arrangement")
            _write(svg_path, hyperplane.arrangement_svg(r))
    else:
        r = balls.build_ball_realization(seq)
        rep = balls.verify_ball_realization(r, built, samples=samples or 0, seed=seed)
        report = {
            "code": str(c),
            "mode": mode,
            "dim": r.dim,
            "verified": rep["ok"],
            "verification": rep,
            "realization": r.to_json_dict(),
        }
        ok = rep["ok"]
    if seq.relabeling is not None:
        report["relabeling"] = list(seq.relabeling)
    return report, EXIT_OK if ok else EXIT_VIOLATION


@report_command()
@click.option("--max-n", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--max-k", type=click.IntRange(min=0), default=2, show_default=True)
@click.option("--order", "order_kind", type=click.Choice(["lex", "wgrevlex"]), default="lex")
@click.option("--max-pairs", type=click.IntRange(min=1), default=toric.MAX_PAIRS,
              show_default=True,
              help="cap on the S-pairs reduced, after the coprime and Gebauer-Moeller criteria")
@click.option("--max-degree", type=click.IntRange(min=1), default=toric.MAX_DEGREE,
              show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--timing", is_flag=True, help="include wall-clock fields in the report")
def scan_conjecture(max_n, max_k, order_kind, max_pairs, max_degree, jobs, timing):
    """Max GB degree under the chosen order for every enumerated pierced code."""
    report = toric.conjecture_scan(
        max_n, max_k, order_kind, max_pairs=max_pairs, max_degree=max_degree,
        jobs=jobs, timing=timing,
    )
    if report["violations"]:
        return report, EXIT_VIOLATION
    return report, EXIT_RESOURCE if report["skipped"] else EXIT_OK


@report_command()
def counterexample():
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
    for key, ranked in (("last_listed_most_significant", listing),
                        ("first_listed_most_significant", listing[::-1])):
        gb = ideal.reduced_groebner_basis(toric.ListedLexOrder(ideal.ring, ranked))
        cubics = [g.as_str(ideal.ring) for g in gb if g.degree == 3]
        entry = {
            "basis_size": len(gb),
            "max_degree": toric.gb_max_degree(gb),
            "cubics": cubics,
            "basis": [g.as_str(ideal.ring) for g in gb],
        }
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
    return report, EXIT_OK if matched is not None else EXIT_VIOLATION


if __name__ == "__main__":
    main()
