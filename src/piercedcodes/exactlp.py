"""Exact rational linear programming and feasibility.

One engine, Fourier-Motzkin elimination over Fraction arithmetic.  Each
max-slack LP runs one elimination (``fm_stages``); the supremum is read
from its last stage (``fm_max_last``), which alone decides strict
feasibility of an open polyhedron, and an interior witness point is
found by back-substitution through the same stages (``fm_witness``).
The tests hold it against an exact two-phase simplex.

Constraints are rows (a, b) meaning a . z <= b over variables z.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

F = Fraction


def _norm1(a) -> Fraction:
    return sum(abs(x) for x in a)


def _dot(a, x) -> Fraction:
    return sum(ai * xi for ai, xi in zip(a, x))


def solve_linear(rows, rhs):
    """One solution x of A x = b, or None if inconsistent; exact.

    Returns (particular solution, nullspace basis).
    """
    m = [list(map(F, r)) + [F(v)] for r, v in zip(rows, rhs)]
    ncols = len(m[0]) - 1 if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][ncols] != 0:
            return None
    x = [F(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    null = []
    for fc in free:
        v = [F(0)] * ncols
        v[fc] = F(1)
        for i, c in enumerate(pivots):
            v[c] = -m[i][fc]
        null.append(tuple(v))
    return tuple(x), null


# ---------------------------------------------------------------------------
# Fourier-Motzkin


def _fm_eliminate(rows, var: int):
    """Eliminate one variable from rows (a, b): a.z <= b."""
    pos, neg, rest = [], [], []
    for a, b in rows:
        c = a[var]
        if c > 0:
            pos.append((a, b))
        elif c < 0:
            neg.append((a, b))
        else:
            rest.append((a, b))
    out = list(rest)
    for ap, bp in pos:
        for an, bn in neg:
            cp, cn = ap[var], -an[var]
            a = tuple(cn * x + cp * y for x, y in zip(ap, an))
            b = cn * bp + cp * bn
            out.append((a, b))
    # normalize and deduplicate, keeping the tightest rhs per normal
    best = {}
    for a, b in out:
        g = _norm1(a)
        if g == 0:
            if b < 0:
                return None  # 0 <= negative: infeasible
            continue
        a = tuple(x / g for x in a)
        b = b / g
        if a not in best or b < best[a]:
            best[a] = b
    return [(a, b) for a, b in best.items()]


def fm_stages(rows):
    """The Fourier-Motzkin elimination stages of rows (a, b): a.z <= b.

    stages[v] holds the rows left once variables 0..v-1 are eliminated,
    so the last stage involves only the last variable.  None when a
    stage proves the rows infeasible.
    """
    nvars = len(rows[0][0]) if rows else 0
    stages = [rows]
    for var in range(nvars - 1):
        cur = _fm_eliminate(stages[-1], var)
        if cur is None:
            return None
        stages.append(cur)
    return stages


def fm_max_last(stages) -> Optional[Fraction]:
    """Supremum of the last variable, read from the last stage of
    ``fm_stages``; None if infeasible (``stages`` is None or the bounds
    cross).

    Raises if unbounded (callers always bound the region).
    """
    if stages is None:
        return None
    upper, lower = [], []
    for a, b in stages[-1]:
        c = a[-1]
        if c > 0:
            upper.append(b / c)
        elif c < 0:
            lower.append(b / c)
        elif b < 0:
            return None
    if not upper:
        raise ValueError("objective unbounded above")
    sup = min(upper)
    if lower and max(lower) > sup:
        return None
    return sup


def fm_witness(stages, fixed_last: Fraction):
    """A point with the last variable pinned, strictly inside where possible.

    Back-substitutes through the elimination ``stages``, choosing
    interval midpoints.  Assumes the rows are feasible with the last
    variable at ``fixed_last``.
    """
    nvars = len(stages)  # one stage per variable
    values = [None] * nvars
    values[nvars - 1] = F(fixed_last)
    for var in range(nvars - 2, -1, -1):
        lo, hi = None, None
        for a, b in stages[var]:
            c = a[var]
            if c == 0:
                continue
            rest = b - sum(
                a[k] * values[k] for k in range(var + 1, nvars) if a[k] != 0
            )
            bound = rest / c
            if c > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        if lo is None and hi is None:
            values[var] = F(0)
        elif lo is None:
            values[var] = hi - 1
        elif hi is None:
            values[var] = lo + 1
        else:
            if lo > hi:
                raise ValueError("empty interval in witness extraction")
            values[var] = (lo + hi) / 2
    return tuple(values)


# ---------------------------------------------------------------------------
# max-min-slack interface


def _normalized(strict_rows):
    """Rows (a, b) scaled by 1/|a|_1, so a.x - b is minus the normalized slack."""
    out = []
    for a, b in strict_rows:
        a, b = tuple(map(F, a)), F(b)
        scale = _norm1(a)
        out.append((tuple(x / scale for x in a), b / scale))
    return out


def _slack_lp(rows):
    """Maximize t subject to a.x + t <= b over normalized rows.

    Returns (stages, supremum); the supremum is None unless it is
    positive, i.e. unless the open region a.x < b is nonempty.
    """
    stages = fm_stages([(a + (F(1),), b) for a, b in rows])
    sup = fm_max_last(stages)
    return stages, (sup if sup is not None and sup > 0 else None)


def max_slack(strict_rows, eq_rows=()):
    """Maximize the minimum normalized slack of strict constraints.

    strict_rows: (a, b) meaning a . x < b desired; slack of x is
    (b - a.x) / |a|_1.  eq_rows: (a, b) meaning a . x = b, satisfied
    exactly by restricting to the affine solution space x0 + span(null).

    Returns (margin, point) with margin the exact optimum (None if the
    open region is empty, i.e. optimum <= 0 or infeasible).
    """
    rows = _normalized(strict_rows)
    x0, null = (), None
    if eq_rows:
        sol = solve_linear([a for a, _ in eq_rows], [b for _, b in eq_rows])
        if sol is None:
            return None, None
        x0, null = sol
        rows = [
            (tuple(_dot(a, v) for v in null), b - _dot(a, x0)) for a, b in rows
        ]
    if not rows:
        return F(0), x0
    stages, sup = _slack_lp(rows)
    if sup is None:
        return None, None
    u = fm_witness(stages, sup / 2)[:-1]
    if null is None:
        return sup, u
    return sup, tuple(
        xi + sum(uk * v[i] for uk, v in zip(u, null)) for i, xi in enumerate(x0)
    )


def strictly_feasible(strict_rows) -> bool:
    """Whether some x has a.x < b on every row; decided from the max-slack
    supremum alone, without a witness."""
    rows = _normalized(strict_rows)
    return bool(rows) and _slack_lp(rows)[1] is not None
