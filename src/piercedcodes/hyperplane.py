"""Exact hyperplane realizations of inductively pierced codes.

The builder replays a piercing sequence, starting from a split line
segment and, at each step, pulling a point p' near the piercing point
out into a new dimension: the bounding simplex becomes a cone over the
old one and a horizontal halfspace slices a small neighborhood off its
tip.  One exact LP per step finds the piercing point, p' lies on a
dyadic grid, and every witness comes from the construction.  All
arithmetic is over Fractions.  Verification follows the same
construction: exact witnesses show every codeword is realized, and an
inductive bound on the sign patterns of each tip shows nothing else is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .codes import NeuralCode, word_str
from .exactlp import _dot, _norm1, _normalized, max_slack, strictly_feasible
from .piercing import BASE_CODE, PiercingSequence, _subsets, first_word_outside, pierce

F = Fraction


@dataclass
class HyperplaneRealization:
    """Halfspace i is x_i >= heights[i-1], on where it holds; the bounding
    simplex is spanned by ``bound_vertices`` in R^dim, dim = len(heights).
    The step that added halfspace m found the piercing point
    ``piercing_points[m-2]``, added apex m, (p', 1) in coordinates 1..m,
    and cut at height m, 1 - a."""

    heights: list
    bound_vertices: list
    witnesses: dict
    piercing_points: list

    @property
    def dim(self) -> int:
        return len(self.heights)

    @cached_property
    def bound_rows(self) -> list:
        """Strict rows (a, b), a.x < b, describing the open bounding simplex,
        scaled to |a|_1 = 1 so that b - a.x is a normalized slack; computed
        once per realization."""
        return _normalized(bound_inequalities(self.bound_vertices))

    @cached_property
    def slacks(self) -> dict:
        """Each witness's least normalized slack in the bounding simplex and on
        its codeword's side of each halfspace; computed once per realization."""
        return {c: min(
            min(b - _dot(a, w) for a, b in self.bound_rows),
            min(w[i] - h if i + 1 in c else h - w[i] for i, h in enumerate(self.heights)),
        ) for c, w in self.witnesses.items()}

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
                    "p": [str(x) for x in p],
                    "p_prime": [str(x) for x in self.bound_vertices[m][: m - 1]],
                    "p_tilde": [str(x) for x in self.bound_vertices[m][:m]],
                    "a": str(1 - self.heights[m - 1]),
                    "height": str(self.heights[m - 1]),
                }
                for m, p in enumerate(self.piercing_points, 2)
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
    then the cone over the level-(j-1) one (``_cone_rows``).
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
        rows = _cone_rows(rows, apex[: j - 1])
    return rows


def _cone_rows(rows, p):
    """Facet rows of the cone with apex (p, 1) over the simplex of ``rows``:
    each a.y < b lifts through the apex to a.y + (b - a.p) x_m < b, and
    the base x_m > 0 is the facet opposite the apex."""
    base = ((F(0),) * len(p) + (F(-1),), F(0))
    return [(a + (b - _dot(a, p),), b) for a, b in rows] + [base]


def _largest_power_scale(bound_value: Fraction) -> Fraction:
    """Largest a = 1/2^t with a <= bound_value (t >= 1 for a proper cut)."""
    a = F(1, 2)
    while a > bound_value:
        a /= 2
    return a


def build_hyperplane_realization(seq: PiercingSequence) -> HyperplaneRealization:
    """Replay ``seq`` into an exact halfspace arrangement in R^n; old
    witnesses lift into the cone below each new cut, and new atoms get
    the piercing point p moved along the lambda axes, just above it."""
    heights = [F(1)]
    vertices = [(F(0),), (F(2),)]
    facets = bound_inequalities(vertices)
    witnesses = {frozenset(): (F(1, 2),), frozenset({1}): (F(3, 2),)}
    code = BASE_CODE
    points = []
    for step in seq:
        code = pierce(code, step)
        dim = len(heights)
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
        rho = min((b - _dot(row, p)) / _norm1(row) for row, b in strict) / 2
        spread = max(abs(vx - px) for v in vertices for vx, px in zip(v, p))
        a_scale = _largest_power_scale(rho / (2 * spread))
        height = 1 - a_scale
        p_prime, grid = _apex(p, facets, a_scale, rho)
        lifted = _cone_rows(facets, p_prime)
        # each old witness keeps its codeword (old halfspaces are vertical) and
        # rises to half the room under the cut and each lifted row, a.y + c x_m < b
        for c, w in witnesses.items():
            room = [(b - _dot(a[:-1], w)) / a[-1] for a, b in lifted[:-1] if a[-1] > 0]
            witnesses[c] = w + (_largest_power_scale(min(room + [height]) / 2),)
        witnesses.update(_tip_witnesses(p, step, lifted, height, grid))
        vertices = [v + (F(0),) for v in vertices] + [p_prime + (F(1),)]
        facets = lifted
        heights.append(height)
        points.append(p)
    return HyperplaneRealization(heights, vertices, witnesses, points)


def _apex(p, facets, a_scale, rho):
    """(p', grid): p rounded to the grid 1/2^g plus 1/(2^g 3^(i+1)) on
    coordinate i, whose short rationals keep the next LP small and miss
    every (dyadic) height.  The grid starts within rho/4 and halves until
    p is inside the simplex dilated by a_scale about p', whose facets are
    a.x < a_scale*b + (1 - a_scale)*a.p'."""
    grid = _largest_power_scale(rho / 4)
    while True:
        cand = tuple(round(x / grid) * grid + grid / 3 ** (i + 1) for i, x in enumerate(p))
        if all(
            _dot(a, p) < a_scale * b + (1 - a_scale) * _dot(a, cand)
            for a, b in facets
        ):
            return cand, grid
        grid /= 2


def _tip_witnesses(p, step, lifted, height, e):
    """Witnesses of sigma ∪ nu ∪ {m}, nu ⊆ lambda: p moved by e along each
    lambda axis (up in nu, down outside it) at ``height + e``, e halved
    until all are inside the lifted facets.  That ends, as the cut's
    cross-section holds p inside; e <= rho/4 keeps sigma and tau."""
    m = len(p) + 1
    while True:
        points = {
            step.sigma | nu | {m}: tuple(
                x + e if i in nu else x - e if i in step.lam else x
                for i, x in enumerate(p, 1)
            ) + (height + e,)
            for nu in _subsets(step.lam)
        }
        if all(_dot(a, x) < b for x in points.values() for a, b in lifted):
            return points
        e /= 2


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

    The witnesses, each with a positive slack in ``r.slacks``, show each of
    their codewords is realized, and they must be exactly the expected
    ones.  Given the construction's shape, the sign patterns of
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
    for c, slack in r.slacks.items():
        if slack <= 0:
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


def arrangement_svg(r: HyperplaneRealization) -> str:
    """Plain SVG picture of a 2-D arrangement: bound, lines, witnesses."""
    if r.dim != 2:
        raise ValueError("SVG export is only available for 2-D realizations")
    size = 400
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
    """Minimum of ``r.slacks``, the slacks of the constructed witnesses.

    A positive value certifies every atom holds a point at positive
    normalized distance from every hyperplane and from the boundary of
    the bounding simplex; this is the implemented proxy for stability
    under small perturbations.  It bounds each atom's best such distance
    from below (on seeded n = 5 codes, as low as 1e-11 against 2e-8).
    """
    return min(r.slacks.values())
