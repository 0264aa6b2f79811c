"""Exact two-phase simplex: the tests' cross-check for the max-slack LPs
that ``piercedcodes.exactlp`` solves by Fourier-Motzkin elimination."""

from fractions import Fraction as F

from piercedcodes.exactlp import _normalized


def simplex_max(c, rows, rhs):
    """Maximize c.z subject to rows.z <= rhs, z free; exact rational.

    Returns (optimum, point) or (None, None) if infeasible; raises on
    unbounded problems.  Free variables are split into differences of
    nonnegatives; Bland's rule guarantees termination.
    """
    n = len(c)
    m = len(rows)
    # variables: z+ (n), z- (n), slacks (m), artificials added as needed
    ncols = 2 * n + m
    tab = []
    basis = []
    art_cols = []
    for i, (a, b) in enumerate(zip(rows, rhs)):
        row = [F(0)] * ncols
        for j, aj in enumerate(a):
            row[j] = F(aj)
            row[n + j] = -F(aj)
        row[2 * n + i] = F(1)
        b = F(b)
        if b < 0:
            row = [-x for x in row]
            b = -b
        tab.append((row, b))
        basis.append(None)
    # choose initial basis: slack if coefficient +1, else artificial
    extra = 0
    for i in range(m):
        row, b = tab[i]
        if row[2 * n + i] == 1:
            basis[i] = 2 * n + i
        else:
            art_cols.append(ncols + extra)
            basis[i] = ncols + extra
            extra += 1
    total = ncols + extra
    grid = []
    for i in range(m):
        row, b = tab[i]
        full = row + [F(0)] * extra
        if basis[i] >= ncols:
            full[basis[i]] = F(1)
        grid.append(full + [b])

    def pivot(grid, basis, r, col):
        pr = grid[r]
        pv = pr[col]
        grid[r] = [x / pv for x in pr]
        for i in range(len(grid)):
            if i != r and grid[i][col] != 0:
                f = grid[i][col]
                grid[i] = [x - f * y for x, y in zip(grid[i], grid[r])]
        basis[r] = col

    def run(grid, basis, obj, allowed):
        while True:
            # reduced costs
            red = list(obj)
            for i, bi in enumerate(basis):
                if red[bi] != 0:
                    f = red[bi]
                    red = [x - f * y for x, y in zip(red, grid[i])]
            col = next(
                (j for j in range(len(obj) - 1) if j in allowed and red[j] > 0),
                None,
            )
            if col is None:
                val = -red[-1]
                return val
            ratios = [
                (grid[i][-1] / grid[i][col], basis[i], i)
                for i in range(len(grid))
                if grid[i][col] > 0
            ]
            if not ratios:
                raise ValueError("LP unbounded")
            _, _, r = min(ratios)
            pivot(grid, basis, r, col)

    allowed = set(range(total))
    if extra:
        phase1 = [F(0)] * (total + 1)
        for j in art_cols:
            phase1[j] = -F(1)
        val = run(grid, basis, phase1, allowed)
        if val < 0:
            return None, None
        allowed -= set(art_cols)
        # pivot artificials out of the basis if possible
        for i in range(m):
            if basis[i] in art_cols:
                col = next(
                    (j for j in allowed if grid[i][j] != 0), None
                )
                if col is not None:
                    pivot(grid, basis, i, col)
    obj = [F(0)] * (total + 1)
    for j in range(n):
        obj[j] = F(c[j])
        obj[n + j] = -F(c[j])
    val = run(grid, basis, obj, allowed)
    point = [F(0)] * (2 * n)
    for i, bi in enumerate(basis):
        if bi < 2 * n:
            point[bi] = grid[i][-1]
    z = tuple(point[j] - point[n + j] for j in range(n))
    return val, z


def simplex_max_slack(strict_rows):
    """Simplex counterpart of max_slack (no equality support needed)."""
    rows = _normalized(strict_rows)
    if not rows:
        return F(0), ()
    nvars = len(rows[0][0])
    c = (F(0),) * nvars + (F(1),)
    val, z = simplex_max(c, [a + (F(1),) for a, _ in rows], [b for _, b in rows])
    if val is None or val <= 0:
        return None, None
    return val, z[:nvars]
