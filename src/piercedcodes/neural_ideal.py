"""Pseudo-monomials over F2 and the canonical form of the neural ideal.

A pseudo-monomial prod_{i in on} x_i * prod_{j in off} (1 - x_j) is
stored as the disjoint pair (on, off), and evaluated only on 0/1
indicator vectors of codewords, so no polynomial arithmetic is needed.
The canonical form is the set of minimal non-faces of the polar
complex (see :mod:`piercedcodes.complexes`), read off its faces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import complexes
from .codes import NeuralCode


@dataclass(frozen=True)
class PseudoMonomial:
    on: frozenset
    off: frozenset

    def __post_init__(self):
        object.__setattr__(self, "on", frozenset(self.on))
        object.__setattr__(self, "off", frozenset(self.off))
        if self.on & self.off:
            raise ValueError("on and off sets must be disjoint")

    @property
    def degree(self) -> int:
        return len(self.on) + len(self.off)

    def to_json_dict(self) -> dict:
        return {"on": sorted(self.on), "off": sorted(self.off)}

    def __str__(self) -> str:
        parts = [f"x{i}" for i in sorted(self.on)]
        parts += [f"(1-x{j})" for j in sorted(self.off)]
        return "*".join(parts) if parts else "1"


def _sort_key(pm: PseudoMonomial):
    return (pm.degree, tuple(sorted(pm.on)), tuple(sorted(pm.off)))


def canonical_form(code: NeuralCode) -> list:
    """The minimal non-faces of the polar complex, as pseudo-monomials.

    (on, off) vanishes on the code iff on ∪ -off lies in no polar facet.
    A minimal non-face is a face plus a literal of a larger neuron than
    any in the face.  Sorted by degree, then on-set, then off-set.
    """
    if not code.words:
        raise ValueError("code must be nonempty")
    faces = complexes.polar_complex_of(code).faces()
    minimal = []
    for f in faces:
        for i in range(max(map(abs, f), default=0) + 1, code.n + 1):
            for v in (i, -i):
                s = f | {v}
                if s not in faces and all(s - {u} in faces for u in f):
                    minimal.append(s)
    cf = (PseudoMonomial({v for v in s if v > 0}, {-v for v in s if v < 0}) for s in minimal)
    return sorted(cf, key=_sort_key)


def cf_max_degree(code: NeuralCode) -> int:
    cf = canonical_form(code)
    return max((pm.degree for pm in cf), default=0)


def is_intersection_complete(code: NeuralCode) -> bool:
    """True iff the code contains all intersections of its codewords.

    The direct pairwise check; the tests hold it against the
    canonical-form criterion (no element with more than one off-neuron).
    """
    return all(a & b in code for a, b in itertools.combinations(code.words, 2))
