"""Pseudo-monomials over F2 and the canonical form of the neural ideal.

A pseudo-monomial prod_{i in on} x_i * prod_{j in off} (1 - x_j) is
stored as the disjoint pair (on, off).  Everything here evaluates only
on 0/1 indicator vectors of codewords, so no polynomial arithmetic is
needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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

    @property
    def type(self) -> int:
        """1: monomial, 3: off-only, 2: mixed."""
        if not self.off:
            return 1
        if not self.on:
            return 3
        return 2

    def divides(self, other: "PseudoMonomial") -> bool:
        return self.on <= other.on and self.off <= other.off

    def evaluates_zero_on(self, c: frozenset) -> bool:
        return not (self.on <= c and not (self.off & c))

    def to_json_dict(self) -> dict:
        return {"on": sorted(self.on), "off": sorted(self.off)}

    def __str__(self) -> str:
        parts = [f"x{i}" for i in sorted(self.on)]
        parts += [f"(1-x{j})" for j in sorted(self.off)]
        return "*".join(parts) if parts else "1"


def _sort_key(pm: PseudoMonomial):
    return (pm.degree, tuple(sorted(pm.on)), tuple(sorted(pm.off)))


def vanishes_on(pm: PseudoMonomial, code: NeuralCode) -> bool:
    return all(pm.evaluates_zero_on(c) for c in code.words)


def canonical_form(code: NeuralCode) -> list:
    """Divisibility-minimal vanishing pseudo-monomials, by 3^n enumeration.

    Output is sorted by degree, then on-set, then off-set.  The
    constant pseudo-monomial is excluded; it never vanishes on a
    nonempty code.
    """
    if not code.words:
        raise ValueError("code must be nonempty")
    neurons = list(code.neurons)
    vanishing = []
    for assignment in itertools.product((0, 1, 2), repeat=code.n):
        on = frozenset(i for i, a in zip(neurons, assignment) if a == 1)
        off = frozenset(i for i, a in zip(neurons, assignment) if a == 2)
        if not on and not off:
            continue
        pm = PseudoMonomial(on, off)
        if vanishes_on(pm, code):
            vanishing.append(pm)
    minimal = [
        pm
        for pm in vanishing
        if not any(other is not pm and other.divides(pm) for other in vanishing)
    ]
    return sorted(minimal, key=_sort_key)


def cf_max_degree(code: NeuralCode) -> int:
    cf = canonical_form(code)
    return max((pm.degree for pm in cf), default=0)


def is_intersection_complete(code: NeuralCode) -> bool:
    """True iff the code contains all intersections of its codewords.

    The direct pairwise check; the tests hold it against the
    canonical-form criterion (no element with more than one off-neuron,
    type 1 aside).
    """
    return all(a & b in code for a, b in itertools.combinations(code.words, 2))
