"""Simplicial complexes, polar complexes, vertex decomposability, shelling."""

import itertools
import random
from collections import Counter

import pytest

from piercedcodes.codes import code, word
from piercedcodes.complexes import (
    SimplicialComplex,
    connected_components,
    deletion,
    facet_str,
    is_clique_complex,
    is_vertex_decomposable,
    link,
    polar_complex_of,
    polar_facet,
    shelling_order,
    simplicial_complex_of,
    verify_shelling,
)
from piercedcodes.piercing import enumerate_pierced_codes
from .conftest import FIG_CODE, SORT_EXAMPLE


def cx(*facets):
    return SimplicialComplex(frozenset(frozenset(f) for f in facets))


def test_facet_reduction_and_dim():
    k = cx([1, 2], [1], [2, 3])
    assert k.facets == frozenset({frozenset({1, 2}), frozenset({2, 3})})
    # the void complex has no facet, the empty complex the facet ∅
    assert cx().facets == frozenset()
    assert cx([]).facets == frozenset({frozenset()})


def test_simplicial_complex_of_code():
    k = simplicial_complex_of(code(2, [1], [1, 2], []))
    assert k.facets == frozenset({frozenset({1, 2})})


def _faces(k):
    """Every face of k: all subsets of every facet."""
    return {frozenset(s) for f in k.facets
            for r in range(len(f) + 1) for s in itertools.combinations(f, r)}


def test_faces_and_has_face():
    k = cx([1, 2, 3])
    assert len(_faces(k)) == 8
    assert k.has_face([1, 3]) and not k.has_face([4])


def test_link_and_deletion():
    k = cx([1, 2, 3], [2, 4])
    assert link(k, 2).facets == frozenset({frozenset({1, 3}), frozenset({4})})
    assert deletion(k, 2).facets == frozenset({frozenset({1, 3}), frozenset({4})})
    assert link(k, 4).facets == frozenset({frozenset({2})})
    with pytest.raises(ValueError):
        link(k, 9)


def _faces_oracle(k, v, mode):
    faces = _faces(k)
    if mode == "link":
        out = {f - {v} for f in faces if v in f}
    else:
        out = {f for f in faces if v not in f}
    return SimplicialComplex(frozenset(out)).facets


def test_link_deletion_against_face_oracle():
    rng = random.Random(3)
    verts = list(range(1, 7))
    for _ in range(40):
        facets = [
            frozenset(rng.sample(verts, rng.randint(1, 4))) for _ in range(5)
        ]
        k = SimplicialComplex(frozenset(facets))
        for v in k.vertices:
            assert link(k, v).facets == _faces_oracle(k, v, "link")
            assert deletion(k, v).facets == _faces_oracle(k, v, "del")


def test_vertex_decomposable_examples():
    ok, cert = is_vertex_decomposable(cx([1, 2, 3]))
    assert ok and "simplex" in cert
    ok, cert = is_vertex_decomposable(cx([1, 2], [2, 3], [1, 3]))
    assert ok and "vertex" in cert
    # two simplices glued at a vertex, the shape a 1-piercing can leave
    ok, cert = is_vertex_decomposable(cx([1, 2, 3], [1, 4, 5]))
    assert ok and "vertex" in cert
    assert is_vertex_decomposable(cx([1, 2], [3, 4]))[0]


def test_vertex_decomposable_certificate_is_checkable():
    k = cx([1, 2], [2, 3], [3, 4])
    ok, cert = is_vertex_decomposable(k)
    assert ok

    def check(c, node):
        if "simplex" in node:
            assert c.is_simplex()
            return
        v = node["vertex"]
        assert v in c.vertices
        check(link(c, v), node["link"])
        check(deletion(c, v), node["deletion"])

    check(k, cert)


def test_connected_components():
    k = cx([1, 2], [2, 3], [5], [6, 7])
    comps = connected_components(k)
    assert sorted(sorted(c.vertices) for c in comps) == [[1, 2, 3], [5], [6, 7]]


def _clique_oracle(k):
    """Grow every clique of the 1-skeleton, level by level; a clique
    that is not a face ends the search."""
    verts = sorted(k.vertices, key=repr)
    adj = {v: set() for v in verts}
    for f in k.facets:
        for a, b in itertools.combinations(f, 2):
            adj[a].add(b)
            adj[b].add(a)
    cliques = [frozenset({v}) for v in verts]
    seen = set(cliques)
    while cliques:
        nxt = []
        for q in cliques:
            for v in verts:
                if v in q or not all(v in adj[u] for u in q):
                    continue
                q2 = q | {v}
                if q2 in seen:
                    continue
                seen.add(q2)
                if not k.has_face(q2):
                    return False
                nxt.append(q2)
        cliques = nxt
    return True


def test_clique_complex():
    assert is_clique_complex(cx([1, 2, 3], [3, 4]))
    # hollow triangle: the clique {1,2,3} is not a face
    assert not is_clique_complex(cx([1, 2], [2, 3], [1, 3]))
    assert is_clique_complex(cx([]))
    assert is_clique_complex(cx())


def test_clique_complex_against_oracle_random():
    rng = random.Random(17)
    not_flag = 0
    for _ in range(2000):
        verts = list(range(1, rng.randint(1, 7) + 1))
        # mostly small facets, so that many complexes are not flag
        facets = [
            frozenset(rng.sample(verts, rng.randint(1, min(4, len(verts)))))
            for _ in range(rng.randint(1, 8))
        ]
        k = SimplicialComplex(frozenset(facets))
        flag = is_clique_complex(k)
        assert flag == _clique_oracle(k), k
        not_flag += not flag
    # the sample must exercise both answers
    assert 200 < not_flag < 1800, not_flag


def test_clique_complex_against_oracle_pierced_n5():
    codes = [c for c, _ in enumerate_pierced_codes(5, 3)]
    assert len(codes) > 4000
    for c in codes:
        k = simplicial_complex_of(c)
        assert is_clique_complex(k) == _clique_oracle(k), str(c)


def test_clique_complex_large_facet():
    """A 30-vertex facet has 2^30 cliques; the facet test reads it once."""
    big = list(range(1, 31))
    # a hollow triangle beside the facet, then one sharing its edge {1, 2}
    assert not is_clique_complex(cx(big, [31, 32], [32, 33], [31, 33]))
    assert not is_clique_complex(cx(big, [1, 31], [2, 31]))
    assert is_clique_complex(cx(big, [1, 2, 31], [31, 32]))


def test_polar_facets():
    assert polar_facet(word([1]), 2) == frozenset({1, -2})
    assert facet_str(frozenset({1, -2, 3})) == "+-+"
    k = polar_complex_of(code(2, [1], [1, 2], []))
    assert k.facets == frozenset(
        {frozenset({1, -2}), frozenset({1, 2}), frozenset({-1, -2})}
    )


def test_polar_complex_of_two_step_build():
    got = {facet_str(f) for f in polar_complex_of(FIG_CODE).facets}
    assert got == {"---", "+--", "++-", "-+-", "+++", "+-+"}


def test_polar_link_example():
    gamma = polar_complex_of(SORT_EXAMPLE)
    lk = link(gamma, 3)
    assert lk.facets == frozenset({frozenset({1, 2}), frozenset({-1, 2})})


def test_shelling_order_examples():
    assert [facet_str(f) for f in shelling_order(SORT_EXAMPLE)] == [
        "---", "+--", "++-", "-+-", "+++", "-++",
    ]
    assert [facet_str(f) for f in shelling_order(code(1, [], [1]))] == ["-", "+"]


def test_verify_shelling_reference_order():
    gamma = polar_complex_of(SORT_EXAMPLE)
    ok, witness = verify_shelling(gamma, shelling_order(SORT_EXAMPLE))
    assert ok and witness is None


def test_verify_shelling_rejects_bad_order():
    # disconnected pure complex: no order is a shelling
    k = cx([1, 2], [3, 4])
    ok, witness = verify_shelling(k, sorted(k.facets, key=sorted))
    assert not ok and witness is not None
    with pytest.raises(ValueError):
        verify_shelling(k, [frozenset({1, 2})])
    with pytest.raises(ValueError):
        verify_shelling(cx([1, 2], [3]), list(cx([1, 2], [3]).facets))


def _cross_polytope_facets(n):
    out = []
    for signs in itertools.product((1, -1), repeat=n):
        out.append(frozenset(s * i for i, s in zip(range(1, n + 1), signs)))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weight_monotone_cross_polytope_orders_shell(n):
    """Any facet order monotone in the number of positive vertices shells."""
    facets = _cross_polytope_facets(n)
    k = SimplicialComplex(frozenset(facets))
    rng = random.Random(n)
    for direction in (False, True):
        for _ in range(5):
            rng.shuffle(facets)
            order = sorted(
                facets,
                key=lambda f: sum(1 for v in f if v > 0),
                reverse=direction,
            )
            ok, witness = verify_shelling(k, order)
            assert ok, witness


def test_shelling_sweep_small(pierced_n4_k3):
    for c, _ in pierced_n4_k3:
        gamma = polar_complex_of(c)
        ok, witness = verify_shelling(gamma, shelling_order(c))
        assert ok, (str(c), witness)


def _pairwise_shelling(order):
    """The shelling criterion read pair by pair, the oracle for
    ``verify_shelling``: for each j and each i < j, F_i ∩ F_j must lie
    in some codimension-1 intersection F_l ∩ F_j with l < j."""
    order = [frozenset(f) for f in order]
    for j in range(1, len(order)):
        fj = order[j]
        codim1 = [
            fj & order[l] for l in range(j) if len(fj & order[l]) == len(fj) - 1
        ]
        for i in range(j):
            sigma = order[i] & fj
            if len(sigma) == len(fj) - 1:
                continue
            if not any(sigma <= tau for tau in codim1):
                return False, {"i": i, "j": j, "intersection": sorted(sigma, key=repr)}
    return True, None


def test_shelling_matches_pairwise_oracle_pierced_n5():
    # the construction order and two seeded shuffles of every polar complex
    rng = random.Random(5)
    verdicts = Counter()
    for c, seq in enumerate_pierced_codes(5, 3):
        k = polar_complex_of(c)
        order = shelling_order(c, seq)
        for _ in range(3):
            got = verify_shelling(k, order)
            assert got == _pairwise_shelling(order), str(c)
            verdicts[got[0]] += 1
            order = rng.sample(order, len(order))
    assert verdicts[True] and verdicts[False], verdicts


def test_shelling_matches_pairwise_oracle_random_pure():
    rng = random.Random(7)
    verdicts = Counter()
    for _ in range(3000):
        vertices = range(1, rng.randint(2, 7) + 1)
        size = rng.randint(1, len(vertices))
        faces = {frozenset(rng.sample(vertices, size)) for _ in range(rng.randint(1, 12))}
        k = SimplicialComplex(frozenset(faces))
        order = rng.sample(sorted(k.facets, key=sorted), len(k.facets))
        got = verify_shelling(k, order)
        assert got == _pairwise_shelling(order), (order, got)
        verdicts[got[0]] += 1
    assert verdicts[True] and verdicts[False], verdicts

