"""Exact hyperplane realizations of inductively pierced codes.

The builder replays a piercing sequence, starting from a split line
segment and, at each step, pulling a carefully chosen point out into a
new dimension: the bounding simplex becomes a cone over the old one and
a horizontal halfspace slices a small neighborhood off its tip.  All
arithmetic is over Fractions.  Verification follows the same
construction: exact witnesses show every codeword is realized, and an
inductive bound on the sign patterns of each tip shows nothing else is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .codes import NeuralCode, word_str
from .exactlp import _dot, _norm1, max_slack, strictly_feasible
from .piercing import BASE_CODE, PiercingSequence, first_word_outside, pierce

F = Fraction


@dataclass
class HyperplaneRealization:
    """Halfspace i is x_i >= heights[i-1], on where it holds; the bounding
    simplex is spanned by ``bound_vertices`` in R^dim, dim = len(heights)."""

    heights: list
    bound_vertices: list
    witnesses: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.heights)

    @cached_property
    def bound_rows(self) -> list:
        """Strict rows (a, b), a.x < b, describing the open bounding simplex;
        computed once per realization."""
        return bound_inequalities(self.bound_vertices)

    def sign_rows(self, codeword: frozenset):
        return list(self.bound_rows) + [
            _row(i, h, self.dim, i in codeword) for i, h in enumerate(self.heights, 1)
        ]

    def to_json_dict(self) -> dict:
        n = self.dim
        return {
            "dim": n,
            "halfspaces": [
                {
                    "normal": ["1" if k == i else "0" for k in range(n)],
                    "offset": str(h),
                    "orientation": ">=",
                }
                for i, h in enumerate(self.heights)
            ],
            "bound_vertices": [[str(x) for x in v] for v in self.bound_vertices],
            "witnesses": {
                word_str(c): [str(x) for x in p]
                for c, p in sorted(self.witnesses.items(), key=lambda kv: sorted(kv[0]))
            },
            "trace": [
                {
                    "p": [str(x) for x in t["p"]],
                    "p_prime": [str(x) for x in t["p_prime"]],
                    "p_tilde": [str(x) for x in t["p_tilde"]],
                    "a": str(t["a"]),
                    "height": str(t["height"]),
                }
                for t in self.trace
            ],
        }


def _row(i: int, h: Fraction, dim: int, on: bool):
    """Row (a, b), a.x < b, strictly on (x_i > h) or strictly off (x_i < h)
    halfspace i in R^dim."""
    s = F(-1) if on else F(1)
    return tuple(s if k == i - 1 else F(0) for k in range(dim)), s * h


def bound_inequalities(vertices):
    """Facet rows (a, b), a.x < b, of the simplex spanned by ``vertices``;
    row k is the facet opposite vertex k.

    The vertices must have the construction's shape: vertices 0 and 1
    are distinct points of the x_1-axis and vertex j >= 2 is an apex
    (p', 1) in coordinates 1..j, zero beyond.  The level-j simplex is
    then the cone over the level-(j-1) one, so each facet row a.y < b
    lifts to a.y + (b - a.p') x_j < b through the apex, and the base
    x_j > 0 is the facet opposite the apex.
    """
    dim = len(vertices[0])
    if len(vertices) != dim + 1 or any(len(v) != dim for v in vertices):
        raise ValueError("bound must be a simplex: dim+1 vertices in R^dim")
    for j, v in enumerate(vertices):
        if any(v[max(1, j):]):
            raise ValueError(f"vertex {j} is not zero beyond coordinate {max(1, j)}")
    v0, v1 = vertices[0][0], vertices[1][0]
    if v0 == v1:
        raise ValueError("vertices 0 and 1 coincide")
    s = F(1) if v0 < v1 else F(-1)
    rows = [((s,), s * v1), ((-s,), -s * v0)]
    for j in range(2, dim + 1):
        apex = vertices[j]
        if apex[j - 1] != 1:
            raise ValueError(f"vertex {j} is not an apex (p', 1)")
        p = apex[: j - 1]
        rows = [(a + (b - _dot(a, p),), b) for a, b in rows]
        rows.append(((F(0),) * (j - 1) + (F(-1),), F(0)))
    return rows


def _direction_candidates(dim: int):
    yield tuple(F(1, 2**i) for i in range(dim))
    for i in range(dim):
        e = [F(0)] * dim
        e[i] = F(1)
        yield tuple(e)
    yield tuple(F(1, 3**i) for i in range(dim))
    yield tuple(F((-1) ** i, 2**i) for i in range(dim))


def _largest_power_scale(bound_value: Fraction) -> Fraction:
    """Largest a = 1/2^t with a <= bound_value (t >= 1 for a proper cut)."""
    a = F(1, 2)
    while a > bound_value:
        a /= 2
    return a


def build_hyperplane_realization(
    seq: PiercingSequence, extra_scale_halvings: int = 0
) -> HyperplaneRealization:
    """Replay ``seq`` into an exact halfspace arrangement in R^n.

    ``extra_scale_halvings`` shrinks the per-step dilation factor a by
    additional powers of two; used to spot-check that nondegeneracy
    margins shrink with it.
    """
    heights = [F(1)]
    vertices = [(F(0),), (F(2),)]
    code = BASE_CODE
    trace = []
    for step in seq:
        code = pierce(code, step)
        dim = len(heights)
        facets = bound_inequalities(vertices)
        eqs = [_row(i, heights[i - 1], dim, False) for i in sorted(step.lam)]
        strict = list(facets)
        strict += [_row(i, heights[i - 1], dim, True) for i in sorted(step.sigma)]
        strict += [_row(i, heights[i - 1], dim, False) for i in sorted(step.tau)]
        margin, p = max_slack(strict, eq_rows=eqs)
        if margin is None or margin <= 0:
            raise RuntimeError(
                f"internal error: no piercing point for step {step}"
            )
        # box half-width rho: points within it keep every strict constraint
        rho = min((b - sum(a * x for a, x in zip(row, p))) / _norm1(row)
                  for row, b in strict) * F(1, 2)
        spread = max(
            max(abs(vx - px) for vx, px in zip(v, p)) for v in vertices
        )
        a_scale = _largest_power_scale(rho / (2 * spread))
        a_scale /= 2**extra_scale_halvings

        p_prime = _perturb(p, facets, heights, a_scale, rho)
        p_tilde = p_prime + (F(1),)
        vertices = [v + (F(0),) for v in vertices] + [p_tilde]
        height = 1 - a_scale
        heights.append(height)
        trace.append(
            {"p": p, "p_prime": p_prime, "p_tilde": p_tilde, "a": a_scale, "height": height}
        )

    realization = HyperplaneRealization(heights, vertices, trace=trace)
    for c in code.sorted_words():
        m, w = max_slack(realization.sign_rows(c))
        if m is None or m <= 0:
            raise RuntimeError(f"internal error: atom of {sorted(c)} is empty")
        realization.witnesses[c] = w
    return realization


def _perturb(p, facets, heights, a_scale, rho):
    """Choose p' near p, off every hyperplane, with p interior to the
    simplex dilated by a_scale about p'.

    ``facets`` are the simplex's rows a.x < b.  The dilation about c
    moves each to a.x < a_scale*b + (1 - a_scale)*a.c, so no facet of the
    dilated simplex is solved for.
    """
    delta0 = rho / 4
    for halvings in range(64):
        delta = delta0 / 2**halvings
        for v in _direction_candidates(len(p)):
            scale = max(abs(x) for x in v)
            vv = tuple(x / scale for x in v)
            cand = tuple(px + delta * vx for px, vx in zip(p, vv))
            if any(x == h for x, h in zip(cand, heights)):
                continue
            if all(
                _dot(a, p) < a_scale * b + (1 - a_scale) * _dot(a, cand)
                for a, b in facets
            ):
                return cand
    raise RuntimeError("could not find an off-hyperplane perturbation")


def realized_code(r: HyperplaneRealization) -> NeuralCode:
    """The code cut out by the arrangement, decided exactly per sign vector.

    2^n exact LPs: an independent oracle for the verifier, which does
    not call it.
    """
    n = r.dim
    words = set()
    for mask in range(2**n):
        c = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        if strictly_feasible(r.sign_rows(c)):
            words.add(c)
    return NeuralCode(n, frozenset(words))


def _structure_fault(r: HyperplaneRealization) -> Optional[str]:
    """Why ``r`` lacks the shape the inductive bound relies on, or None.

    The shape is the builder's: ``bound_inequalities`` accepts the n+1
    vertices, and for m >= 2 height m is 1 - a with 0 < a < 1 and apex m
    has p' in the closed level-(m-1) simplex.
    """
    n = r.dim
    if len(r.bound_vertices) != n + 1:
        return "not n+1 vertices for n heights"
    try:
        rows = r.bound_rows
    except ValueError as exc:
        return str(exc)
    for m in range(2, n + 1):
        if not 0 < r.heights[m - 1] < 1:
            return f"height {m} is not 1 - a with 0 < a < 1"
        # lifting through vertex m gave row k < m the x_m coefficient
        # b - a.p', where a.y < b is facet k of the level-(m-1) simplex
        if any(a[m - 1] < 0 for a, _ in rows[:m]):
            return f"vertex {m} is not an apex (p', 1) over the level-{m - 1} simplex"
    return None


def _tips(r: HyperplaneRealization):
    """(m, sigma, lam) per halfspace m, for ``first_word_outside``.

    At level m the bounding simplex is the cone over the level-(m-1)
    simplex with apex (p', 1), so the tip x_m > 1 - a projects into the
    a-dilation D of that simplex about p'.  Halfspace i < m is constant
    along x_m, so it is on the whole tip (sigma) when it is on at every
    vertex of D, off it when off at every vertex, and in lam otherwise;
    a vertex on its hyperplane puts it in lam, which only loosens the
    bound.  Level 1 has the tip {1} with nothing below it.
    """
    yield 1, frozenset(), frozenset()
    for m in range(2, r.dim + 1):
        a = 1 - r.heights[m - 1]
        p = r.bound_vertices[m][: m - 1]
        corners = [
            tuple(pk + a * (vk - pk) for pk, vk in zip(p, v))
            for v in r.bound_vertices[:m]
        ]
        sigma, lam = set(), set()
        for i, h in enumerate(r.heights[: m - 1], 1):
            on = [x[i - 1] - h for x in corners]
            if all(v > 0 for v in on):
                sigma.add(i)
            elif not all(v < 0 for v in on):
                lam.add(i)
        yield m, frozenset(sigma), frozenset(lam)


def verify_hyperplane_realization(r: HyperplaneRealization, expected: NeuralCode):
    """Exact check, along the construction, that the arrangement realizes
    ``expected``; no LP is solved.

    The witnesses, checked exactly against every strict row, show each
    of their codewords is realized, and they must be exactly the
    expected ones.  Given the construction's shape, the sign patterns of
    the open bounding simplex lie in the bound of ``_tips``, which must
    lie in the code.  Returns (ok, discrepancy); a discrepancy names the
    offending sign vector or witness.  Under "code mismatch", ``extra``
    holds witnessed codewords outside the code or the first pattern the
    bound cannot exclude, and ``missing`` the codewords with no witness.
    """
    if expected.n != r.dim:
        return False, {"reason": "halfspace count differs from neuron count"}
    fault = _structure_fault(r)
    if fault is not None:
        return False, {"reason": "not a construction arrangement", "detail": fault}
    for c, w in r.witnesses.items():
        for row, b in r.sign_rows(c):
            if not sum(a * x for a, x in zip(row, w)) < b:
                return False, {"reason": "witness fails", "codeword": sorted(c)}
    witnessed = frozenset(r.witnesses)
    extra, missing = witnessed - expected.words, expected.words - witnessed
    if not extra and not missing:
        excess = first_word_outside(expected.words, _tips(r))
        if excess is not None:
            extra = {excess}
    if extra or missing:
        return False, {
            "reason": "code mismatch",
            "sign_vector": min(sorted(w) for w in extra | missing),
            "extra": sorted(sorted(w) for w in extra),
            "missing": sorted(sorted(w) for w in missing),
        }
    return True, None


def arrangement_svg(r: HyperplaneRealization, size: int = 400) -> str:
    """Plain SVG picture of a 2-D arrangement: bound, lines, witnesses."""
    if r.dim != 2:
        raise ValueError("SVG export is only available for 2-D realizations")
    xs = [float(v[0]) for v in r.bound_vertices]
    ys = [float(v[1]) for v in r.bound_vertices]
    pad = 0.25
    lo_x, hi_x = min(xs) - pad, max(xs) + pad
    lo_y, hi_y = min(ys) - pad, max(ys) + pad
    span = max(hi_x - lo_x, hi_y - lo_y)

    def pt(x, y):
        sx = (float(x) - lo_x) / span * size
        sy = size - (float(y) - lo_y) / span * size
        return f"{sx:.2f},{sy:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    poly = " ".join(pt(v[0], v[1]) for v in r.bound_vertices)
    parts.append(f'<polygon points="{poly}" fill="none" stroke="black"/>')
    # halfspace 1 is x >= h1, halfspace 2 is y >= h2
    h1, h2 = (float(h) for h in r.heights)
    for (x1, y1), (x2, y2) in (((h1, lo_y), (h1, hi_y)), ((lo_x, h2), (hi_x, h2))):
        (sx1, sy1), (sx2, sy2) = pt(x1, y1).split(","), pt(x2, y2).split(",")
        parts.append(
            f'<line x1="{sx1}" y1="{sy1}" x2="{sx2}" y2="{sy2}" stroke="steelblue"/>'
        )
    for c, w in sorted(r.witnesses.items(), key=lambda kv: sorted(kv[0])):
        x, y = pt(w[0], w[1]).split(",")
        label = "".join(map(str, sorted(c))) or "0"
        parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="crimson"/>')
        parts.append(f'<text x="{x}" y="{y}" dx="5" font-size="10">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def nondegeneracy_margin(r: HyperplaneRealization) -> Fraction:
    """Minimum normalized witness slack over all atoms and constraints.

    A positive value certifies every atom holds a point at positive
    normalized distance from every hyperplane and from the boundary of
    the bounding simplex; this is the implemented proxy for stability
    under small perturbations.
    """
    best: Optional[Fraction] = None
    for c, w in r.witnesses.items():
        for row, b in r.sign_rows(c):
            slack = (b - sum(a * x for a, x in zip(row, w))) / _norm1(row)
            if best is None or slack < best:
                best = slack
    if best is None:
        raise ValueError("realization has no witnesses")
    return best
