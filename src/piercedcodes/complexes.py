"""Simplicial and polar complexes of neural codes.

Complexes are stored by their facets (inclusion-maximal faces); faces
are implicitly closed downward.  Polar complexes live on the signed
vertex set {1..n, -1..-n}: +i is the on-vertex of neuron i, -i its
off-vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .codes import NeuralCode, word_key


def _maximal(faces: Iterable[frozenset]) -> frozenset:
    faces = set(frozenset(f) for f in faces)
    return frozenset(
        f for f in faces if not any(f < g for g in faces)
    )


@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex given by its facets.

    The void complex (no faces at all) has an empty facet set; the
    empty complex (only the empty face) has the single facet set().
    """

    facets: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "facets", _maximal(self.facets))

    @property
    def vertices(self) -> frozenset:
        return frozenset(v for f in self.facets for v in f)

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) <= 1

    def is_simplex(self) -> bool:
        return len(self.facets) <= 1

    def has_face(self, face: Iterable) -> bool:
        face = frozenset(face)
        return any(face <= f for f in self.facets)

    def __str__(self) -> str:
        parts = sorted(("".join(map(str, sorted(f, key=repr))) or "{}") for f in self.facets)
        return "<" + ",".join(parts) + ">"


def simplicial_complex_of(code: NeuralCode) -> SimplicialComplex:
    """Downward closure of the codewords, given by its maximal codewords."""
    return SimplicialComplex(frozenset(code.words))


def link(k: SimplicialComplex, v) -> SimplicialComplex:
    if v not in k.vertices:
        raise ValueError(f"vertex {v!r} not in complex")
    return SimplicialComplex(frozenset(f - {v} for f in k.facets if v in f))


def deletion(k: SimplicialComplex, v) -> SimplicialComplex:
    if v not in k.vertices:
        raise ValueError(f"vertex {v!r} not in complex")
    return SimplicialComplex(frozenset(f - {v} for f in k.facets))


def is_vertex_decomposable(k: SimplicialComplex):
    """Exhaustive decomposing-vertex recursion with memoization.

    A complex qualifies when it is a simplex or some vertex has a
    decomposable link and a decomposable deletion; no extra condition
    is placed on the chosen vertex.  Returns (decomposable,
    certificate); the certificate is a nested dict recording one
    witnessing vertex per level.  Simplices (including the void and
    empty complexes) are the base case.
    """
    memo: dict = {}

    def rec(c: SimplicialComplex):
        key = c.facets
        if key in memo:
            return memo[key]
        if c.is_simplex():
            cert = {"simplex": sorted((sorted(f, key=repr) for f in c.facets))}
            memo[key] = cert
            return cert
        memo[key] = None
        for v in sorted(c.vertices, key=repr):
            lk = rec(link(c, v))
            if lk is None:
                continue
            dl = rec(deletion(c, v))
            if dl is None:
                continue
            cert = {"vertex": v, "link": lk, "deletion": dl}
            memo[key] = cert
            return cert
        return None

    cert = rec(k)
    return cert is not None, cert


def connected_components(k: SimplicialComplex) -> list:
    """Split along 1-skeleton connectivity; isolated vertices stand alone."""
    parent = {v: v for v in k.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for f in k.facets:
        vs = sorted(f, key=repr)
        for a, b in zip(vs, vs[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    groups: dict = {}
    for f in k.facets:
        if not f:
            continue
        root = find(next(iter(f)))
        groups.setdefault(root, set()).add(f)
    comps = [SimplicialComplex(frozenset(fs)) for fs in groups.values()]
    comps.sort(key=lambda c: sorted(map(repr, c.vertices)))
    return comps


def is_clique_complex(k: SimplicialComplex) -> bool:
    """True iff every clique of the 1-skeleton is a face.

    A minimal non-face on three or more vertices would be T ∪ {x}, with
    T inside some facet F, x outside F and adjacent to every vertex of
    T; and in a clique complex (F ∩ N(x)) ∪ {x} is a clique.  So the
    complex is flag iff that set is a face for every facet F and every
    vertex x ∉ F: |facets|·|vertices| face tests.
    """
    closed_nbhd: dict = {}
    for f in k.facets:
        for v in f:
            closed_nbhd.setdefault(v, set()).update(f)
    return all(
        k.has_face((f & closed_nbhd[x]) | {x})
        for f in k.facets
        for x in closed_nbhd
        if x not in f
    )


def polar_facet(c: frozenset, n: int) -> frozenset:
    return frozenset(i if i in c else -i for i in range(1, n + 1))


def facet_str(f: frozenset) -> str:
    """Compact sign-vector form, e.g. 1¬2¬3 -> "+--"."""
    return "".join("+" if i in f else "-" for i in range(1, len(f) + 1))


def polar_complex_of(code: NeuralCode) -> SimplicialComplex:
    """Pure (n-1)-dimensional complex with one signed facet per codeword."""
    return SimplicialComplex(frozenset(polar_facet(c, code.n) for c in code.words))


def shelling_order(code: NeuralCode, seq=None) -> list:
    """Facets of the polar complex in the codeword order; given the code's
    piercing sequence, codewords are ranked in its construction labels."""
    label = frozenset if seq is None else seq.construction_word
    return [polar_facet(c, code.n) for c in sorted(code.words, key=lambda c: word_key(label(c)))]


def verify_shelling(k: SimplicialComplex, order: list):
    """Check a facet order by restriction sets (Ziegler 1995, ch. 8).

    An earlier F_l meets F_j in codimension 1 when F_j - F_l = {v}, and
    F_j - v holds F_i ∩ F_j exactly when v is not in F_i.  So the order
    shells when each earlier F_i misses some v of the restriction set
    {v : F_j - F_l = {v}, l < j}.  Returns (ok, witness); the witness
    names the first failing (i, j) pair and their intersection.
    """
    order = [frozenset(f) for f in order]
    if not k.is_pure():
        raise ValueError("complex is not pure")
    if set(order) != set(k.facets) or len(order) != len(k.facets):
        raise ValueError("order is not a permutation of the facets")
    for j, fj in enumerate(order):
        missed = [fj - fi for fi in order[:j]]
        restriction = {v for d in missed if len(d) == 1 for v in d}
        for i, d in enumerate(missed):
            if restriction.isdisjoint(d):
                return False, {"i": i, "j": j, "intersection": sorted(fj - d, key=repr)}
    return True, None
