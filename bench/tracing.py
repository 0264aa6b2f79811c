"""Spans around the program's layer functions, installed from outside.

Each traced function is replaced by a wrapper at every name that
refers to it in the package's modules, so a call is caught whether the
caller looks the function up in its own module (``exactlp.fm_witness``
inside ``exactlp``) or under an imported name
(``hyperplane.strictly_feasible``, ``cli.recover_piercing_sequence``).
Spans stay in memory; self time is a span's duration minus the
durations of its child spans.

Only layer entry points are wrapped.  Per-element helpers such as
``toric.normal_form`` or ``piercing.is_pierceable`` run hundreds of
thousands of times per operation, and a span around each would cost
more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

MODULES = ("codes", "piercing", "complexes", "neural_ideal", "toric",
           "exactlp", "hyperplane", "balls", "cli")

# (module, attribute) -> span name; "Class.method" wraps a method.
TRACED = {
    ("toric", "toric_ideal"): "toric.toric_ideal",
    ("toric", "buchberger"): "toric.buchberger",
    ("toric", "ToricIdeal.reduced_groebner_basis"): "toric.reduced_groebner_basis",
    ("exactlp", "max_slack"): "exactlp.max_slack",
    ("exactlp", "fm_max_last"): "exactlp.fm_max_last",
    ("exactlp", "fm_witness"): "exactlp.fm_witness",
    ("exactlp", "solve_linear"): "exactlp.solve_linear",
    ("exactlp", "strictly_feasible"): "exactlp.strictly_feasible",
    ("hyperplane", "build_hyperplane_realization"): "hyperplane.build_hyperplane_realization",
    ("hyperplane", "bound_inequalities"): "hyperplane.bound_inequalities",
    ("hyperplane", "realized_code"): "hyperplane.realized_code",
    ("hyperplane", "verify_hyperplane_realization"): "hyperplane.verify_hyperplane_realization",
    ("hyperplane", "nondegeneracy_margin"): "hyperplane.nondegeneracy_margin",
    ("balls", "build_ball_realization"): "balls.build_ball_realization",
    ("balls", "verify_ball_realization"): "balls.verify_ball_realization",
    ("neural_ideal", "canonical_form"): "neural_ideal.canonical_form",
    ("neural_ideal", "is_intersection_complete"): "neural_ideal.is_intersection_complete",
    ("complexes", "is_vertex_decomposable"): "complexes.is_vertex_decomposable",
    ("complexes", "is_clique_complex"): "complexes.is_clique_complex",
    ("complexes", "verify_shelling"): "complexes.verify_shelling",
    ("piercing", "recover_piercing_sequence"): "piercing.recover_piercing_sequence",
    ("piercing", "enumerate_pierced_codes"): "piercing.enumerate_pierced_codes",
}


class Tracer:
    """Records spans [name, start, end, parent index, phase, items]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.enabled = False
        self.phase = None

    def span(self, name: str):
        """Open a span; the returned index closes it through ``close``."""
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self.phase, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's own work between
            # items is not counted; items counts what the generator yields
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    if not self.enabled:
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        yield item
                        continue
                    idx = self.span(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    self.spans[idx][5] = 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def install(self) -> None:
        mods = [importlib.import_module(f"piercedcodes.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in mods}
        mods.append(importlib.import_module("piercedcodes"))
        for (modname, attr), name in TRACED.items():
            owner = by_name[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def totals(self, phase_filter) -> dict:
        """name -> [self seconds, calls, items] over spans whose phase passes."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, phase, items in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, phase, items) in enumerate(self.spans):
            if not phase_filter(phase):
                continue
            acc = out.setdefault(name, [0.0, 0, 0])
            acc[0] += (end - start) - child[i]
            acc[1] += 1
            acc[2] += items
        return out
