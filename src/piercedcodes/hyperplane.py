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

from .codes import NeuralCode
from .exactlp import _dot, _norm1, max_slack, solve_linear, strictly_feasible
from .piercing import BASE_CODE, PiercingSequence, first_word_outside, pierce

F = Fraction


@dataclass(frozen=True)
class Halfspace:
    """a . x >= b (orientation +1) or a . x <= b (orientation -1); the
    "on" side of the neuron is the oriented side."""

    normal: tuple
    offset: Fraction
    orientation: int = 1

    def __post_init__(self):
        if all(x == 0 for x in self.normal):
            raise ValueError("halfspace normal must be nonzero")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +-1")

    def on_row(self):
        """Row (a, b) with a.x < b meaning strictly on the on-side."""
        s = self.orientation
        return tuple(-s * x for x in self.normal), -s * self.offset

    def off_row(self):
        s = self.orientation
        return tuple(s * x for x in self.normal), s * self.offset

    def value(self, x) -> Fraction:
        return sum(a * xi for a, xi in zip(self.normal, x)) - self.offset

    def extended(self) -> "Halfspace":
        return Halfspace(self.normal + (F(0),), self.offset, self.orientation)

    def to_json_dict(self) -> dict:
        return {
            "normal": [str(a) for a in self.normal],
            "offset": str(self.offset),
            "orientation": ">=" if self.orientation == 1 else "<=",
        }


@dataclass
class HyperplaneRealization:
    dim: int
    halfspaces: list
    bound_vertices: list
    witnesses: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)

    @cached_property
    def bound_rows(self) -> list:
        """Strict rows (a, b), a.x < b, describing the open bounding simplex;
        solved once per realization."""
        return bound_inequalities(self.bound_vertices)

    def sign_rows(self, codeword: frozenset):
        rows = list(self.bound_rows)
        for i, hs in enumerate(self.halfspaces, 1):
            rows.append(hs.on_row() if i in codeword else hs.off_row())
        return rows

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "halfspaces": [h.to_json_dict() for h in self.halfspaces],
            "bound_vertices": [[str(x) for x in v] for v in self.bound_vertices],
            "witnesses": {
                "".join(map(str, sorted(c))) or "{}": [str(x) for x in p]
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


def bound_inequalities(vertices):
    """Facet rows (a, b), a.x < b, of the simplex spanned by ``vertices``."""
    dim = len(vertices[0])
    if len(vertices) != dim + 1:
        raise ValueError("bound must be a simplex: dim+1 vertices")
    rows = []
    for k in range(len(vertices)):
        others = [v for i, v in enumerate(vertices) if i != k]
        system = [tuple(v) + (F(-1),) for v in others]
        sol = solve_linear(system, [F(0)] * len(others))
        if sol is None or len(sol[1]) != 1:
            raise ValueError("bound vertices are not affinely independent")
        ab = sol[1][0]
        a, b = ab[:dim], ab[dim]
        value = sum(ai * xi for ai, xi in zip(a, vertices[k])) - b
        if value == 0:
            raise ValueError("bound vertices are not affinely independent")
        if value > 0:
            a, b = tuple(-x for x in a), -b
        # interior side of this facet: a.x < b with vertex k satisfying it
        rows.append((a, b))
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
    halfspaces = [Halfspace((F(1),), F(1), 1)]
    vertices = [(F(0),), (F(2),)]
    code = BASE_CODE
    trace = []
    for step in seq:
        step.validate_for(code.n)
        eqs = []
        facets = bound_inequalities(vertices)
        strict = list(facets)
        for i in sorted(step.lam):
            hs = halfspaces[i - 1]
            eqs.append((hs.normal, hs.offset))
        for i in sorted(step.sigma):
            strict.append(halfspaces[i - 1].on_row())
        for i in sorted(step.tau):
            strict.append(halfspaces[i - 1].off_row())
        margin, p = max_slack(strict, eq_rows=eqs)
        if margin is None or margin <= 0:
            raise RuntimeError(
                f"no piercing point exists for step {step}; invalid sequence"
            )
        # box half-width rho: points within it keep every strict constraint
        rho = min((b - sum(a * x for a, x in zip(row, p))) / _norm1(row)
                  for row, b in strict) * F(1, 2)
        spread = max(
            max(abs(vx - px) for vx, px in zip(v, p)) for v in vertices
        )
        a_scale = _largest_power_scale(rho / (2 * spread))
        a_scale /= 2**extra_scale_halvings

        p_prime = _perturb(p, facets, halfspaces, a_scale, rho)

        dim = len(p) + 1
        new_vertices = [v + (F(0),) for v in vertices]
        p_tilde = p_prime + (F(1),)
        new_vertices.append(p_tilde)
        height = 1 - a_scale
        new_halfspaces = [hs.extended() for hs in halfspaces]
        normal = tuple(F(0) for _ in range(dim - 1)) + (F(1),)
        new_halfspaces.append(Halfspace(normal, height, 1))
        trace.append(
            {"p": p, "p_prime": p_prime, "p_tilde": p_tilde, "a": a_scale, "height": height}
        )
        halfspaces, vertices = new_halfspaces, new_vertices
        code = pierce(code, step)

    realization = HyperplaneRealization(
        dim=code.n,
        halfspaces=halfspaces,
        bound_vertices=vertices,
        trace=trace,
    )
    for c in code.sorted_words():
        m, w = max_slack(realization.sign_rows(c))
        if m is None or m <= 0:
            raise RuntimeError(f"internal error: atom of {sorted(c)} is empty")
        realization.witnesses[c] = w
    return realization


def _perturb(p, facets, halfspaces, a_scale, rho):
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
            if any(hs.value(cand) == 0 for hs in halfspaces):
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
    n = len(r.halfspaces)
    words = set()
    for mask in range(2**n):
        c = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        if strictly_feasible(r.sign_rows(c)):
            words.add(c)
    return NeuralCode(n, frozenset(words))


def _barycentric(vertices, point) -> list:
    """Barycentric coordinates of ``point`` (length d) in the level-d
    simplex spanned by vertices 0..d, read off by back-substitution:
    vertex j >= 2 has a 1 in coordinate j and zeros after it."""
    d = len(point)
    rest = list(point)
    lam = [F(0)] * (d + 1)
    for j in range(d, 1, -1):
        lam[j] = rest[j - 1]
        rest = [x - lam[j] * v for x, v in zip(rest, vertices[j])]
    (a,), (b,) = vertices[0][:1], vertices[1][:1]
    total = 1 - sum(lam[2:])
    lam[1] = (rest[0] - total * a) / (b - a)
    lam[0] = total - lam[1]
    return lam


def _structure_fault(r: HyperplaneRealization) -> Optional[str]:
    """Why ``r`` lacks the shape the inductive bound relies on, or None.

    The shape is the builder's: halfspace i and vertex j vanish beyond
    coordinates i and max(1, j), vertices 0 and 1 differ, and for
    m >= 2 halfspace m is x_m >= 1 - a with 0 < a < 1 and vertex m is an
    apex (p', 1) with p' in the closed level-(m-1) simplex.
    """
    n, hss, vs = len(r.halfspaces), r.halfspaces, r.bound_vertices
    if r.dim != n or len(vs) != n + 1 or any(len(x) != n for x in vs) or any(
        len(hs.normal) != n for hs in hss
    ):
        return "not n halfspaces and n+1 vertices in R^n"
    for i, hs in enumerate(hss, 1):
        if any(hs.normal[i:]):
            return f"halfspace {i} is not zero beyond coordinate {i}"
    for j, v in enumerate(vs):
        if any(v[max(1, j):]):
            return f"vertex {j} is not zero beyond coordinate {max(1, j)}"
    if vs[0][0] == vs[1][0]:
        return "vertices 0 and 1 coincide"
    for m in range(2, n + 1):
        hs = hss[m - 1]
        e_m = tuple(F(int(k == m - 1)) for k in range(n))
        if hs.orientation != 1 or hs.normal != e_m or not 0 < hs.offset < 1:
            return f"halfspace {m} is not x_{m} >= 1 - a with 0 < a < 1"
        if vs[m][m - 1] != 1 or min(_barycentric(vs, vs[m][: m - 1])) < 0:
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
    for m in range(2, len(r.halfspaces) + 1):
        a = 1 - r.halfspaces[m - 1].offset
        p = r.bound_vertices[m][: m - 1]
        corners = [
            tuple(pk + a * (vk - pk) for pk, vk in zip(p, v))
            for v in r.bound_vertices[:m]
        ]
        sigma, lam = set(), set()
        for i, hs in enumerate(r.halfspaces[: m - 1], 1):
            on = [hs.orientation * hs.value(x) for x in corners]
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
    n = len(r.halfspaces)
    if expected.n != n:
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
    for hs in r.halfspaces:
        a1, a2 = (float(x) for x in hs.normal)
        b = float(hs.offset)
        ends = []
        for x in (lo_x, hi_x):
            if a2 != 0:
                ends.append((x, (b - a1 * x) / a2))
        for y in (lo_y, hi_y):
            if a1 != 0:
                ends.append(((b - a2 * y) / a1, y))
        ends = [
            (x, y) for x, y in ends
            if lo_x - 1e-9 <= x <= hi_x + 1e-9 and lo_y - 1e-9 <= y <= hi_y + 1e-9
        ]
        if len(ends) >= 2:
            (x1, y1), (x2, y2) = ends[0], ends[-1]
            parts.append(
                f'<line x1="{pt(x1, y1).split(",")[0]}" y1="{pt(x1, y1).split(",")[1]}" '
                f'x2="{pt(x2, y2).split(",")[0]}" y2="{pt(x2, y2).split(",")[1]}" '
                'stroke="steelblue"/>'
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
