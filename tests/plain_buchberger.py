"""Plain Buchberger: the tests' cross-check for ``piercedcodes.toric.buchberger``.

Every pair is reduced except those with coprime leads; no pair criterion
and no support mask.  Each reduction rescans the whole basis after every
move.  The reduced basis is unique, so both engines must agree exactly.
"""

import heapq

from piercedcodes.toric import Binomial, oriented


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _sub_add(m, sub, add):
    return tuple(x - s + a for x, s, a in zip(m, sub, add))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _reduce_monomial(m, basis):
    changed = True
    while changed:
        changed = False
        for g in basis:
            if _divides(g.lead, m):
                m = _sub_add(m, g.lead, g.trail)
                changed = True
    return m


def _normal_form(b, basis, order):
    if b is None:
        return None
    return oriented(_reduce_monomial(b.lead, basis), _reduce_monomial(b.trail, basis), order)


def plain_buchberger(generators, order):
    """Reduced Groebner basis of a pure-difference binomial ideal, sorted by lead."""
    basis = []
    for g in generators:
        g = _normal_form(g, basis, order)
        if g is not None:
            basis.append(g)
    heap = []

    def push(i, j):
        lcm = _lcm(basis[i].lead, basis[j].lead)
        heapq.heappush(heap, (sum(lcm), order.sort_key(lcm), i, j))

    for j in range(len(basis)):
        for i in range(j):
            push(i, j)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        f, g = basis[i], basis[j]
        if all(x == 0 or y == 0 for x, y in zip(f.lead, g.lead)):
            continue
        lcm = _lcm(f.lead, g.lead)
        s = oriented(_sub_add(lcm, f.lead, f.trail), _sub_add(lcm, g.lead, g.trail), order)
        h = _normal_form(s, basis, order)
        if h is not None:
            basis.append(h)
            for i2 in range(len(basis) - 1):
                push(i2, len(basis) - 1)
    # minimal basis: drop each element whose lead another surviving lead divides
    kept = []
    for g in sorted(basis, key=lambda g: order.sort_key(g.lead)):
        if any(_divides(h.lead, g.lead) for h in kept):
            continue
        kept = [h for h in kept if not _divides(g.lead, h.lead)]
        kept.append(g)
    reduced = [Binomial(g.lead, _reduce_monomial(g.trail, kept)) for g in kept]
    return sorted(reduced, key=lambda g: order.sort_key(g.lead))
