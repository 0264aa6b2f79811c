"""Checks of the program's reports against computations made apart from it.

Nothing here imports ``piercedcodes``.  Each checker takes the input of
one operation and the JSON report the CLI printed for it, and raises
``CheckFailed`` naming the first discrepancy.

* toric-gb: the reduced basis must equal, as a set of binomials up to
  sign, the reduced basis ``sympy.groebner`` computes (lex: elimination
  of the neuron variables; wgrevlex: a callable order key on the kernel
  generators), and ``max_degree`` must be the basis maximum.
* realize --mode hyperplane: witnesses are checked exactly in Fraction
  against their halfspaces and the bounding simplex; every sign vector
  outside the code must be an empty open region under
  ``scipy.optimize.linprog``, and every codeword a nonempty one.
* realize --mode ball: witness patterns are recomputed in numpy, and an
  independent seeded sample must show no pattern outside the code.
* detect: the returned sequence is replayed through its relabelling and
  must rebuild the input; codes made non-pierced must come back so.
* analyze: the canonical form is checked against its definition, and
  the shelling, clique-complex and vertex-decomposability answers
  against what the paper proves for pierced codes.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    """The program's report disagrees with the independent computation."""


def _fail(msg):
    raise CheckFailed(msg)


def word_order_key(c) -> tuple:
    """The paper's codeword order: largest neuron, then heavier first, then lex."""
    return (max(c, default=0), -len(c), tuple(sorted(c)))


def word_label(c) -> str:
    return "".join(str(i) for i in sorted(c)) or "{}"


# --------------------------------------------------------------------------
# toric Groebner bases


_FACTOR = re.compile(r"y_\{(\d+)\}(?:\^(\d+))?$")


def _parse_monomial(text: str) -> frozenset:
    text = text.strip()
    if text == "1":
        return frozenset()
    powers: dict = {}
    for factor in text.split("*"):
        m = _FACTOR.match(factor.strip())
        if m is None:
            _fail(f"unparsable monomial factor {factor!r}")
        word = tuple(int(ch) for ch in m.group(1))
        powers[word] = powers.get(word, 0) + int(m.group(2) or 1)
    return frozenset(powers.items())


def parse_binomial(text: str) -> frozenset:
    """'lead - trail' as an unordered pair of monomials (equality up to sign)."""
    parts = text.split(" - ")
    if len(parts) != 2:
        _fail(f"not a binomial: {text!r}")
    return frozenset(_parse_monomial(p) for p in parts)


def _binomial_degree(b: frozenset) -> int:
    return max(sum(e for _, e in m) for m in b)


def _sympy_binomials(polys, ring_words, nx):
    """Binomial pairs of sympy polys over (x..., ring vars...) gens order."""
    out = set()
    for p in polys:
        terms = p.terms()
        if len(terms) != 2 or sorted(int(c) for _, c in terms) != [-1, 1]:
            _fail(f"sympy basis element is not a pure binomial: {p.as_expr()}")
        pair = []
        for monom, _ in terms:
            if any(monom[:nx]):
                break
            pair.append(frozenset(
                (tuple(sorted(w)), e) for w, e in zip(ring_words, monom[nx:]) if e
            ))
        else:
            out.add(frozenset(pair))
    return out


def reference_toric_basis(words, order: str) -> set:
    """Reduced GB of ker(y_c -> x^c) by sympy, as a set of binomial pairs."""
    import sympy

    ring = sorted((w for w in words if w), key=word_order_key)
    neurons = sorted({i for w in ring for i in w})
    xs = [sympy.Symbol(f"x{i}") for i in neurons]
    ys = [sympy.Symbol("y_" + word_label(w)) for w in ring]
    gens = [y - sympy.Mul(*(xs[neurons.index(i)] for i in sorted(w)))
            for y, w in zip(ys, ring)]
    # lex with x's first, then the codeword-order-largest y most significant;
    # the x-free part of the reduced basis is the reduced lex basis of the kernel
    elim = sympy.groebner(gens, *xs, *reversed(ys), order="lex")
    rev = list(reversed(ring))
    kernel = _sympy_binomials(elim.polys, rev, len(xs))
    if order == "lex":
        return kernel
    weights = [1 if len(w) == 2 else 0 for w in ring]

    def key(m):
        return (sum(a * e for a, e in zip(weights, m)), sum(m),
                tuple(-e for e in reversed(m)))

    kernel_exprs = [g for g in elim.exprs if not (g.free_symbols & set(xs))]
    if not kernel_exprs:
        return set()
    gb = sympy.groebner(kernel_exprs, *ys, order=key)
    return _sympy_binomials(gb.polys, ring, 0)


def check_toric(words, order: str, report: dict) -> None:
    if report.get("order") != order:
        _fail(f"report order {report.get('order')!r}, asked for {order!r}")
    got = [parse_binomial(b) for b in report["basis"]]
    if len(set(got)) != len(got):
        _fail("basis lists an element twice")
    want = reference_toric_basis(words, order)
    if set(got) != want:
        missing = len(want - set(got))
        extra = len(set(got) - want)
        _fail(f"basis differs from sympy: {missing} missing, {extra} extra")
    top = max((_binomial_degree(b) for b in got), default=0)
    if report["max_degree"] != top:
        _fail(f"max_degree {report['max_degree']} but basis maximum is {top}")


# --------------------------------------------------------------------------
# hyperplane realizations


def _row_reduce(rows, rhs):
    """One exact solution of rows @ y = rhs (free unknowns set to 0), or None."""
    ncols = len(rows[0])
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][col]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    if any(m[i][ncols] != 0 for i in range(len(pivots), len(m))):
        return None
    y = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        y[col] = m[i][ncols]
    return y


def _halfspaces(real):
    out = []
    for h in real["halfspaces"]:
        if h["orientation"] not in (">=", "<="):
            _fail(f"unknown orientation {h['orientation']!r}")
        sign = 1 if h["orientation"] == ">=" else -1
        out.append(([Fraction(a) for a in h["normal"]], Fraction(h["offset"]), sign))
    return out


def _simplex_rows(vertices):
    """Strict rows (g, beta), g.x < beta, of the open simplex on ``vertices``.

    Row j says barycentric coordinate j is positive; the coordinates are
    the rows of the inverse of [vertices; 1...1], computed exactly.
    """
    d = len(vertices[0])
    square = [[v[r] for v in vertices] for r in range(d)] + [[Fraction(1)] * (d + 1)]
    cols = []
    for j in range(d + 1):
        unit = [Fraction(int(i == j)) for i in range(d + 1)]
        col = _row_reduce(square, unit)
        if col is None or any(
                sum(square[r][k] * col[k] for k in range(d + 1)) != unit[r] for r in range(d + 1)):
            _fail("bounding simplex is degenerate")
        cols.append(col)
    inv = [[cols[k][j] for k in range(d + 1)] for j in range(d + 1)]
    return [(tuple(-x for x in row[:d]), row[d]) for row in inv]


def _sign_rows(halfspaces, codeword):
    rows = []
    for i, (a, b, s) in enumerate(halfspaces, 1):
        if i in codeword:       # s (a.x - b) > 0
            rows.append((tuple(-s * x for x in a), -s * b))
        else:                   # s (a.x - b) < 0
            rows.append((tuple(s * x for x in a), s * b))
    return rows


def certify_empty(rows, center) -> bool:
    """Prove that {x : g.x < beta for every row} is empty, exactly.

    By Motzkin's transposition theorem the open region is empty iff
    some y >= 0, y != 0 has sum y_i g_i = 0 and sum y_i beta_i <= 0.
    ``scipy.optimize.linprog`` searches for y on the rows translated to
    ``center`` and rescaled, so that regions far below unit size stay
    within float precision; the y it finds is then re-solved exactly on
    its support and checked in Fraction.
    """
    from scipy.optimize import linprog

    d = len(rows[0][0])
    resid = [b - sum(gi * ci for gi, ci in zip(g, center)) for g, b in rows]
    local = min((abs(float(r)) / float(sum(abs(x) for x in g))
                 for (g, _), r in zip(rows, resid) if r != 0), default=1.0)
    g_t = np.array([[float(g[k]) for g, _ in rows] for k in range(d)])
    a_eq = np.vstack([g_t, np.ones(len(rows))])
    b_eq = np.append(np.zeros(d), 1.0)
    # first in units of the nearest constraint, with far ones clipped (the
    # search only needs their sign), then in plain units
    for scale, clip in ((local, 1e3), (1.0, None)):
        cost = np.array([float(r) / scale for r in resid])
        if clip is not None:
            cost = np.clip(cost, -clip, clip)
        res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * len(rows),
                      method="highs")
        if res.status == 0 and _farkas_holds(rows, res.x):
            return True
    return False


def _farkas_holds(rows, y_float) -> bool:
    """Re-solve y exactly on the support of a float guess and check it."""
    d = len(rows[0][0])
    support = [i for i, y in enumerate(y_float) if y > 1e-9 * y_float.max()]
    system = [[rows[i][0][k] for i in support] for k in range(d)]
    system.append([Fraction(1)] * len(support))
    y = _row_reduce(system, [Fraction(0)] * d + [Fraction(1)])
    if y is None or min(y) < 0:
        return False
    if any(sum(yi * rows[i][0][k] for yi, i in zip(y, support)) != 0 for k in range(d)):
        return False
    return sum(yi * rows[i][1] for yi, i in zip(y, support)) <= 0


def check_hyperplane(words, n: int, report: dict) -> None:
    if report.get("verified") is not True:
        _fail("report does not claim a verified realization")
    real = report["realization"]
    if report["dim"] != n or real["dim"] != n:
        _fail(f"dim {report['dim']} but the code has {n} neurons")
    hs = _halfspaces(real)
    if len(hs) != n:
        _fail(f"{len(hs)} halfspaces for {n} neurons")
    vertices = [[Fraction(x) for x in v] for v in real["bound_vertices"]]
    if len(vertices) != n + 1 or any(len(v) != n for v in vertices):
        _fail("bounding simplex does not have n+1 vertices in R^n")
    labels = {word_label(w): w for w in words}
    if set(real["witnesses"]) != set(labels):
        _fail("witness set differs from the code")
    bound = _simplex_rows(vertices)
    witnesses = {}
    for label, point in real["witnesses"].items():
        w = [Fraction(x) for x in point]
        for g, b in _sign_rows(hs, labels[label]) + bound:
            if not sum(gi * xi for gi, xi in zip(g, w)) < b:
                _fail(f"witness of {label} violates a halfspace or the bounding simplex")
        witnesses[labels[label]] = w
    for mask in range(2 ** n):
        c = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        if c in words:
            continue
        near = min(words, key=lambda w: (len(w ^ c), word_label(w)))
        if not certify_empty(_sign_rows(hs, c) + bound, witnesses[near]):
            _fail(f"non-codeword {word_label(c)} is not shown empty")


# --------------------------------------------------------------------------
# ball realizations


def _patterns(points, centers, radii):
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    inside = d2 < (radii ** 2)[None, :]
    return inside @ (1 << np.arange(len(radii)))


def check_ball(words, n: int, k: int, report: dict, seed: int) -> None:
    if report.get("verified") is not True:
        _fail("report does not claim a verified realization")
    real = report["realization"]
    dim = max(1, k + 1)
    if report["dim"] != dim or real["dim"] != dim:
        _fail(f"dim {report['dim']} but a {k}-pierced code needs {dim}")
    centers = np.array(real["centers"], dtype=float)
    radii = np.array(real["radii"], dtype=float)
    if centers.shape != (n, dim) or radii.shape != (n,):
        _fail("center or radius arrays have the wrong shape")
    labels = {word_label(w): w for w in words}
    if set(real["witnesses"]) != set(labels):
        _fail("witness set differs from the code")
    keys = sorted(labels)
    pts = np.array([real["witnesses"][key] for key in keys], dtype=float)
    for key, mask in zip(keys, _patterns(pts, centers, radii)):
        if int(mask) != sum(1 << (i - 1) for i in labels[key]):
            _fail(f"witness of {key} shows a different pattern")
    allowed = {sum(1 << (i - 1) for i in w) for w in words}
    rng = np.random.default_rng(seed)
    lo = (centers - radii[:, None]).min(axis=0)
    hi = (centers + radii[:, None]).max(axis=0)
    span = hi - lo
    boxes = [(lo - 0.25 * span, hi + 0.25 * span)]
    # small balls sit in regions a box-wide sample rarely hits
    boxes += [(c - 2 * r, c + 2 * r) for c, r in zip(centers, radii)]
    for blo, bhi in boxes:
        pts = blo + rng.random((8192, dim)) * (bhi - blo)
        seen = {int(m) for m in np.unique(_patterns(pts, centers, radii))}
        if not seen <= allowed:
            bad = sorted(seen - allowed)[0]
            shown = [i + 1 for i in range(n) if bad >> i & 1]
            _fail(f"sample shows pattern {shown} outside the code")


# --------------------------------------------------------------------------
# piercing sequences


def replay(steps, relabeling=None) -> frozenset:
    """Rebuild a code from its steps; labels go through ``relabeling``."""
    words = {frozenset(), frozenset({1})}
    for m, step in enumerate(steps, start=1):
        lam, sigma, tau = (frozenset(step[key]) for key in ("lambda", "sigma", "tau"))
        if lam | sigma | tau != frozenset(range(1, m + 1)) or len(lam) + len(sigma) + len(tau) != m:
            _fail(f"step {m} does not partition the {m} neurons")
        subsets = [frozenset(c) for r in range(len(lam) + 1)
                   for c in itertools.combinations(sorted(lam), r)]
        if any(sigma | nu not in words for nu in subsets):
            _fail(f"step {m} is not admissible")
        words |= {sigma | nu | {m + 1} for nu in subsets}
    if relabeling is None:
        return frozenset(words)
    n = len(steps) + 1
    if sorted(relabeling) != list(range(1, n + 1)):
        _fail("relabeling is not a permutation of the neurons")
    return frozenset(frozenset(relabeling[i - 1] for i in w) for w in words)


def check_detect(words, pierced: bool, report: dict, max_k: int = 3) -> None:
    if not pierced:
        if report["status"] != "not_pierced" or report["sequence"] is not None:
            _fail("a code with no piercing order was reported pierced")
        return
    if report["status"] != "pierced":
        _fail("a pierced code was reported not pierced")
    seq = report["sequence"]
    if any(len(s["lambda"]) > max_k for s in seq["steps"]):
        _fail("sequence uses a piercing above the degree bound")
    if replay(seq["steps"], seq.get("relabeling")) != words:
        _fail("replaying the sequence does not rebuild the input")


# --------------------------------------------------------------------------
# analyze


def _mask(w) -> int:
    return sum(1 << (i - 1) for i in w)


def _vanishes(on: int, off: int, masks) -> bool:
    # x^on (1-x)^off is nonzero on c exactly when on <= c and off & c == 0
    return all((on & ~c) or (off & c) for c in masks)


def minimal_vanishing_count(n: int, masks) -> int:
    """Number of divisibility-minimal pseudo-monomials vanishing on the code.

    A pseudo-monomial is a base-3 digit vector (0 absent, 1 on, 2 off);
    vanishing is computed for all 3^n at once, and an element is
    minimal when dropping any one of its factors stops it vanishing.
    """
    digits = np.array(list(itertools.product((0, 1, 2), repeat=n)), dtype=np.int64)
    weights = 1 << np.arange(n)[::-1]
    on = ((digits == 1) * weights).sum(axis=1)
    off = ((digits == 2) * weights).sum(axis=1)
    codes = np.array(masks, dtype=np.int64)
    nonzero = ((on[:, None] & ~codes[None, :]) == 0) & ((off[:, None] & codes[None, :]) == 0)
    vanish = ~nonzero.any(axis=1)
    vanish[0] = False                     # the constant 1
    power = 3 ** np.arange(n)[::-1]
    minimal = vanish.copy()
    for pos in range(n):
        dropped = np.arange(len(digits)) - digits[:, pos] * power[pos]
        minimal &= ~((digits[:, pos] != 0) & vanish[dropped])
    return int(minimal.sum())


def _components(facets) -> int:
    parent = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for f in facets:
        for v in f:
            parent.setdefault(v, v)
        vs = sorted(f)
        for a, b in zip(vs, vs[1:]):
            parent[find(a)] = find(b)
    return len({find(v) for v in parent})


def _is_clique_complex(facets) -> bool:
    import networkx as nx

    g = nx.Graph()
    for f in facets:
        g.add_nodes_from(f)
        g.add_edges_from(itertools.combinations(sorted(f), 2))
    return all(any(set(q) <= f for f in facets) for q in nx.find_cliques(g))


def _shelling_holds(order) -> bool:
    """Each facet meets the earlier ones in a pure codimension-1 complex."""
    for j in range(1, len(order)):
        fj = order[j]
        ridges = [fj & order[l] for l in range(j) if len(fj & order[l]) == len(fj) - 1]
        for i in range(j):
            if not any(order[i] & fj <= r for r in ridges):
                return False
    return True


def check_analyze(words, n: int, report: dict) -> None:
    masks = [_mask(w) for w in words]
    cf = [(_mask(pm["on"]), _mask(pm["off"])) for pm in report["canonical_form"]]
    if len(set(cf)) != len(cf):
        _fail("canonical form lists an element twice")
    for on, off in cf:
        if on & off or not (on | off):
            _fail("canonical form holds an ill-formed pseudo-monomial")
        if not _vanishes(on, off, masks):
            _fail("a canonical form element does not vanish on the code")
        for bit in (1 << i for i in range(n)):
            if (on & bit and _vanishes(on & ~bit, off, masks)) or \
                    (off & bit and _vanishes(on, off & ~bit, masks)):
                _fail("a canonical form element is not minimal")
    for v in range(1 << n):
        if v in masks:
            continue
        if not any(on & ~v == 0 and off & v == 0 for on, off in cf):
            _fail(f"non-codeword {v:b} is not killed by the canonical form")
    if len(cf) != minimal_vanishing_count(n, masks):
        _fail("canonical form misses minimal vanishing pseudo-monomials")
    top = max((bin(on).count("1") + bin(off).count("1") for on, off in cf), default=0)
    if report["cf_max_degree"] != top:
        _fail("cf_max_degree is not the canonical form maximum")
    closed = all(a & b in words for a, b in itertools.combinations(words, 2))
    if report["intersection_complete"] != closed:
        _fail("intersection_complete disagrees with the direct check")
    facets = [f for f in words if not any(f < g for g in words)]
    if report["clique_complex"] is not True or not _is_clique_complex(facets):
        _fail("simplicial complex of a pierced code is not reported a clique complex")
    vd = report["vertex_decomposable_components"]
    if len(vd) != _components([f for f in facets if f]) or not all(vd):
        _fail("a component is not reported vertex decomposable")
    order = sorted(words, key=word_order_key)
    polar = [frozenset(i if i in c else -i for i in range(1, n + 1)) for c in order]
    listed = ["".join("+" if i in c else "-" for i in range(1, n + 1)) for c in order]
    if report["shelling_order"] != listed:
        _fail("shelling order is not the codeword order on polar facets")
    if report["shelling_verified"] is not True or not _shelling_holds(polar):
        _fail("codeword order is not reported a shelling")
    seq = report["piercing_sequence"]
    if report["inductively_pierced"] is not True or seq is None:
        _fail("a pierced code in construction labels was reported not pierced")
    if replay(seq["steps"], seq.get("relabeling")) != words:
        _fail("replaying the piercing sequence does not rebuild the code")


def check(op, report: dict, seed: int) -> None:
    """Dispatch on the operation kind."""
    if op.kind == "toric":
        check_toric(op.words, op.order, report)
    elif op.kind == "hyperplane":
        check_hyperplane(op.words, op.n, report)
    elif op.kind == "ball":
        check_ball(op.words, op.n, op.k, report, seed)
    elif op.kind == "detect":
        check_detect(op.words, op.pierced, report)
    elif op.kind == "analyze":
        check_analyze(op.words, op.n, report)
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")
