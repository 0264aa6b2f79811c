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


class ResourceLimitExceeded(Exception):
    """Raised when enumeration outgrows its configured cap."""


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

    @classmethod
    def from_json_dict(cls, d: dict) -> "PiercingStep":
        return cls(frozenset(d["lambda"]), frozenset(d["sigma"]), frozenset(d["tau"]))


@dataclass(frozen=True)
class PiercingSequence:
    """One step per neuron 2..n; replaying from {{}, {1}} rebuilds the code.

    ``relabeling`` is only present when detection had to permute neuron
    labels: relabeling[i] is the original label of the neuron added at
    step i+1 of the construction.
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

    def to_json_dict(self) -> dict:
        d = {"steps": [s.to_json_dict() for s in self.steps]}
        if self.relabeling is not None:
            d["relabeling"] = list(self.relabeling)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "PiercingSequence":
        steps = tuple(PiercingStep.from_json_dict(s) for s in d["steps"])
        relab = tuple(d["relabeling"]) if "relabeling" in d else None
        return cls(steps, relab)


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


def replay(seq: PiercingSequence, base: NeuralCode = BASE_CODE) -> NeuralCode:
    c = base
    for step in seq:
        c = pierce(c, step)
    return c


def _recover_last_step(words: frozenset, neurons: frozenset, j: int, max_k: int):
    """Try to undo a piercing whose new neuron is j; return (step, rest) or None.

    ``words`` is a code on the labels ``neurons``, which contain j; the
    step is written in the same labels.  The step is forced: with
    S = {c \\ {j} : j in c in C}, sigma is the common intersection, lambda
    the rest of the union, tau everything else.  Acceptance requires S to
    be exactly the sigma-union-nu family.
    """
    with_j = [w for w in words if j in w]
    if not with_j:
        return None
    s_family = {w - {j} for w in with_j}
    sigma = frozenset.intersection(*s_family)
    lam = frozenset.union(*s_family) - sigma
    if len(lam) > max_k:
        return None
    others = neurons - {j}
    tau = others - lam - sigma
    if not (lam | sigma | tau == others and lam.isdisjoint(sigma)):
        return None
    if s_family != {sigma | nu for nu in _subsets(lam)}:
        return None
    rest_words = words - frozenset(with_j)
    step = PiercingStep(lam, sigma, tau)
    return step, rest_words


def recover_piercing_sequence(
    code: NeuralCode, max_k: int, relabel: bool = False
) -> Optional[PiercingSequence]:
    """Search for a piercing sequence rebuilding ``code``; None if not pierced.

    With relabel=False only neuron n may be the last-added neuron at
    each stage (the construction labeling convention).  With
    relabel=True every neuron is tried as last, and the returned
    sequence carries the relabeling witness.
    """
    if len(code.words) == 0:
        raise ValueError("code must be nonempty")
    # words are the code's words that avoid every label already removed,
    # so a label set that failed once fails again: the search visits at
    # most 2^n label sets instead of n! orders
    failed = set()

    def rec(words: frozenset, labels: tuple):
        # words and steps keep the code's own labels; labels ascend
        if len(labels) == 1:
            if words == {frozenset(), frozenset(labels)}:
                return (), labels
            return None
        if labels in failed:
            return None
        neurons = frozenset(labels)
        for j in reversed(labels) if relabel else labels[-1:]:
            got = _recover_last_step(words, neurons, j, max_k)
            if got is None:
                continue
            step, rest = got
            deeper = rec(rest, tuple(l for l in labels if l != j))
            if deeper is not None:
                steps, order = deeper
                return steps + (step,), order + (j,)
        failed.add(labels)
        return None

    got = rec(code.words, tuple(code.neurons))
    if got is None:
        return None
    steps, order = got
    # order[i] is the label added at construction position i + 1
    position = {label: i for i, label in enumerate(order, 1)}

    def moved(block):
        return frozenset(position[l] for l in block)

    steps = tuple(PiercingStep(moved(s.lam), moved(s.sigma), moved(s.tau)) for s in steps)
    relabeling = None if order == tuple(code.neurons) else order
    return PiercingSequence(steps, relabeling)


def _partitions(n: int, max_k: int) -> Iterator[PiercingStep]:
    neurons = list(range(1, n + 1))
    for assignment in itertools.product((0, 1, 2), repeat=n):
        lam = frozenset(i for i, a in zip(neurons, assignment) if a == 0)
        if len(lam) > max_k:
            continue
        sigma = frozenset(i for i, a in zip(neurons, assignment) if a == 1)
        tau = frozenset(i for i, a in zip(neurons, assignment) if a == 2)
        yield PiercingStep(lam, sigma, tau)


def enumerate_pierced_codes(
    max_n: int, max_k: int, max_codes: int = 500_000
) -> Iterator[tuple]:
    """Breadth-first closure of {{}, {1}} under piercing, deduplicated.

    Yields (code, sequence) pairs; every code is labeled by
    construction.  Dedup is by literal codeword-set equality, so the
    same code reached by two sequences is emitted once, with the first
    sequence found.
    """
    if max_n < 1:
        return
    seen = {(1, BASE_CODE.words)}
    frontier = deque([(BASE_CODE, PiercingSequence())])
    yield BASE_CODE, PiercingSequence()
    count = 1
    while frontier:
        current, seq = frontier.popleft()
        if current.n >= max_n:
            continue
        for step in _partitions(current.n, max_k):
            if not is_pierceable(current, step):
                continue
            nxt = pierce(current, step)
            key = (nxt.n, nxt.words)
            if key in seen:
                continue
            seen.add(key)
            count += 1
            if count > max_codes:
                raise ResourceLimitExceeded(f"more than {max_codes} codes enumerated")
            nxt_seq = PiercingSequence(seq.steps + (step,))
            yield nxt, nxt_seq
            frontier.append((nxt, nxt_seq))
