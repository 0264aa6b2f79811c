"""The piercing operation and inductive-piercedness detection.

A piercing step is a partition (lambda, sigma, tau) of the neurons of
the code being pierced.  Piercing adds neuron n+1 together with the
codewords sigma ∪ nu ∪ {n+1} for every nu ⊆ lambda; it is allowed only
when sigma ∪ nu is already a codeword for every such nu.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .codes import NeuralCode


class ResourceCapExceeded(Exception):
    """A computation outgrew its cap: enumeration's code count here, and
    Buchberger's S-pair or degree cap in ``toric``."""


def _subsets(s: frozenset) -> Iterator[frozenset]:
    items = sorted(s)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


@dataclass(frozen=True)
class PiercingStep:
    lam: frozenset
    sigma: frozenset
    tau: frozenset

    def __post_init__(self):
        object.__setattr__(self, "lam", frozenset(self.lam))
        object.__setattr__(self, "sigma", frozenset(self.sigma))
        object.__setattr__(self, "tau", frozenset(self.tau))

    @property
    def degree(self) -> int:
        return len(self.lam)

    def validate_for(self, n: int) -> None:
        blocks = [self.lam, self.sigma, self.tau]
        if (
            self.lam | self.sigma | self.tau != frozenset(range(1, n + 1))
            or sum(len(b) for b in blocks) != n
        ):
            raise ValueError(f"step does not partition [{n}]")

    def to_json_dict(self) -> dict:
        return {
            "lambda": sorted(self.lam),
            "sigma": sorted(self.sigma),
            "tau": sorted(self.tau),
        }


@dataclass(frozen=True)
class PiercingSequence:
    """One step per neuron 2..n; replaying from {{}, {1}} rebuilds the code.

    ``relabeling`` is only present when detection had to permute neuron
    labels: relabeling[i] is the original label of construction neuron
    i+1.
    """

    steps: tuple = ()
    relabeling: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    @property
    def degree(self) -> int:
        return max((s.degree for s in self.steps), default=0)

    def construction_word(self, w: frozenset) -> frozenset:
        """Codeword ``w`` of the detected code, in construction labels."""
        if self.relabeling is None:
            return frozenset(w)
        return frozenset(self.relabeling.index(label) + 1 for label in w)

    def to_json_dict(self) -> dict:
        d = {"steps": [s.to_json_dict() for s in self.steps]}
        if self.relabeling is not None:
            d["relabeling"] = list(self.relabeling)
        return d


BASE_CODE = NeuralCode(1, frozenset({frozenset(), frozenset({1})}))


def is_pierceable(code: NeuralCode, step: PiercingStep) -> bool:
    step.validate_for(code.n)
    return all(step.sigma | nu in code for nu in _subsets(step.lam))


def pierce(code: NeuralCode, step: PiercingStep) -> NeuralCode:
    if not is_pierceable(code, step):
        raise ValueError(f"code {code} is not ({sorted(step.lam)},{sorted(step.sigma)},{sorted(step.tau)}) pierceable")
    new = code.n + 1
    added = frozenset(step.sigma | nu | {new} for nu in _subsets(step.lam))
    return NeuralCode(new, code.words | added)


def first_word_outside(words: frozenset, tips) -> Optional[frozenset]:
    """The first word of an inductive pattern bound that is not in ``words``.

    ``tips`` yields (m, sigma, lam): every point of a realization whose
    largest active neuron is m has the pattern sigma ∪ nu ∪ {m} for some
    nu ⊆ lam, as if neuron m were added by piercing.  The bound is these
    patterns and the empty one.  Patterns are generated smallest nu
    first and the search stops at the first one outside ``words``, so
    each tip costs at most |words| + 1 patterns.  None means the whole
    bound lies in ``words``.
    """
    if frozenset() not in words:
        return frozenset()
    for m, sigma, lam in tips:
        for nu in _subsets(lam):
            w = sigma | nu | {m}
            if w not in words:
                return w
    return None


def replay(seq: PiercingSequence) -> NeuralCode:
    c = BASE_CODE
    for step in seq:
        c = pierce(c, step)
    return c


def _recover_last_step(words: frozenset, neurons: frozenset, j: int, max_k: int):
    """Try to undo a piercing whose new neuron is j; return (step, rest) or None.

    ``words`` is a code on the labels ``neurons``, which contain j; the
    step is written in the same labels.  The step is forced: with
    S = {c \\ {j} : j in c in C}, sigma is the common intersection, lambda
    the rest of the union, tau everything else.  Acceptance requires S to
    be exactly the sigma-union-nu family, and the step to be a piercing of
    the rest: every member of S is a codeword there too.
    """
    with_j = [w for w in words if j in w]
    if not with_j:
        return None
    s_family = {w - {j} for w in with_j}
    sigma = frozenset.intersection(*s_family)
    lam = frozenset.union(*s_family) - sigma
    if len(lam) > max_k:
        return None
    tau = neurons - {j} - lam - sigma
    # every member of S lies between sigma and sigma | lam, an interval of
    # 2^|lam| sets, so S is that whole interval exactly when it has 2^|lam|
    # members
    if len(s_family) != 1 << len(lam):
        return None
    rest_words = words - frozenset(with_j)
    if not s_family <= rest_words:
        return None
    step = PiercingStep(lam, sigma, tau)
    return step, rest_words


def recover_piercing_sequence(
    code: NeuralCode, max_k: int, relabel: bool = False
) -> Optional[PiercingSequence]:
    """Read a piercing sequence off ``code`` by deletion; None if not pierced.

    With relabel=False only neuron n may be the last-added neuron at
    each stage (the construction labeling convention).  With
    relabel=True every neuron is tried as last, largest label first,
    and the returned sequence carries the relabeling witness.

    Each stage removes the first candidate j that ``_recover_last_step``
    accepts, and never undoes it.  That greedy choice is safe: an
    accepted removal leaves the deletion C∖j = {w − j : w ∈ C}, and if
    j′ is removable from C it is still removable from C∖j, since
    deleting j keeps the zone family of j′ of the form {σ′ ∪ ν : ν ⊆ λ′}
    with λ′ no larger (so ``max_k`` still holds), and each of its words
    stays a codeword.  So if any order of removals reaches the base
    {∅, {l}}, so does one that starts with j: a failed stage means no
    order exists, and the sequence returned is the first one that a
    search over all removal orders, trying candidates in the same
    order, would find.  Each of the n stages makes at most n calls of
    cost O(|C|).
    """
    if len(code.words) == 0:
        raise ValueError("code must be nonempty")
    # words and steps keep the code's own labels; labels ascend, and
    # steps and order are prepended, so they run in construction order
    words, labels = code.words, list(code.neurons)
    steps, order = [], []
    while len(labels) > 1:
        neurons = frozenset(labels)
        for j in reversed(labels) if relabel else labels[-1:]:
            got = _recover_last_step(words, neurons, j, max_k)
            if got is not None:
                break
        else:
            return None
        step, words = got
        steps.insert(0, step)
        order.insert(0, j)
        labels.remove(j)
    if len(labels) != 1 or words != {frozenset(), frozenset(labels)}:
        return None
    # order[i] is the label added at construction position i + 1
    order = tuple(labels + order)
    relabeling = None if order == tuple(code.neurons) else order
    moved = PiercingSequence((), relabeling).construction_word
    steps = tuple(PiercingStep(moved(s.lam), moved(s.sigma), moved(s.tau)) for s in steps)
    return PiercingSequence(steps, relabeling)


def _steps(code: NeuralCode, max_k: int) -> list:
    """Every step with |lambda| <= max_k that can pierce ``code``.

    sigma ∪ nu is a codeword for every nu ⊆ lambda, so sigma is one, and
    lambda is drawn from the i with sigma ∪ {i} a codeword; a lambda is
    kept when the whole interval [sigma, sigma ∪ lambda] lies in the
    code.  Steps come in the order of their assignments (i in sigma) +
    2 (i in tau) over i = 1..n, read as words over {0, 1, 2}.
    """
    neurons = frozenset(range(1, code.n + 1))
    steps = []
    for sigma in code.words:
        free = sorted(i for i in neurons - sigma if sigma | {i} in code.words)
        for r in range(min(max_k, len(free)) + 1):
            for lam in map(frozenset, itertools.combinations(free, r)):
                if all(sigma | nu in code.words for nu in _subsets(lam)):
                    steps.append(PiercingStep(lam, sigma, neurons - sigma - lam))
    steps.sort(key=lambda s: [(i in s.sigma) + 2 * (i in s.tau) for i in range(1, code.n + 1)])
    return steps


def enumerate_pierced_codes(
    max_n: int, max_k: int, max_codes: int = 500_000
) -> Iterator[tuple]:
    """Breadth-first closure of {{}, {1}} under piercing.

    Yields (code, sequence) pairs; every code is labeled by
    construction and is reached exactly once.  A child's words that
    avoid the new neuron are its parent, and those that contain it
    force the step: sigma is their common intersection and lambda
    their union minus sigma.  So distinct (parent, step) pairs give
    distinct children, and no code needs to be remembered.
    """
    if max_n < 1:
        return
    frontier = deque([(BASE_CODE, PiercingSequence())])
    yield BASE_CODE, PiercingSequence()
    count = 1
    while frontier:
        current, seq = frontier.popleft()
        if current.n >= max_n:
            continue
        for step in _steps(current, max_k):
            nxt = pierce(current, step)
            count += 1
            if count > max_codes:
                raise ResourceCapExceeded(f"more than {max_codes} codes enumerated")
            nxt_seq = PiercingSequence(seq.steps + (step,))
            yield nxt, nxt_seq
            frontier.append((nxt, nxt_seq))
