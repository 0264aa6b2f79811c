"""Codewords, neural codes, and the total order on codewords.

A codeword is a frozenset of neuron indices; the empty set is a valid
codeword.  Neuron indices are positive, except for the homogenizing
dummy neuron 0 (see :mod:`piercedcodes.toric`).

The order sorts codewords by the neuron index at which they were added
during an inductive construction, breaking ties by weight (heavier
first) and then lexicographically.  It drives both the shelling order
on polar-complex facets and the lex monomial order on codeword
variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

Codeword = frozenset


def word(neurons: Iterable[int] = ()) -> Codeword:
    return frozenset(neurons)


def word_key(c: Codeword) -> tuple:
    """Sort key realizing the codeword order.

    max(emptyset) is taken to be 0, a sentinel below every neuron
    index, so the empty codeword sorts first.  Higher weight sorts
    earlier among codewords with the same maximum; remaining ties break
    lexicographically.
    """
    return (max(c, default=0), -len(c), tuple(sorted(c)))


def word_str(c: Codeword) -> str:
    """Digit-string form of a codeword; the empty codeword prints as "{}"."""
    if not c:
        return "{}"
    return "".join(str(i) for i in sorted(c))


@dataclass(frozen=True)
class NeuralCode:
    """A finite set of codewords on neurons 1..n.

    Codes produced by homogenization additionally carry the dummy neuron
    0 in every codeword.
    """

    n: int
    words: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("neuron count must be nonnegative")
        if self.n > 63:
            raise ValueError("codes on more than 63 neurons are unsupported")
        object.__setattr__(self, "words", frozenset(frozenset(w) for w in self.words))
        for w in self.words:
            for i in w:
                if type(i) is not int:
                    raise ValueError(f"neuron label {i!r} is not an integer")
                if not (0 <= i <= self.n):
                    raise ValueError(f"neuron {i} outside 0..{self.n}")

    @property
    def neurons(self) -> range:
        return range(1, self.n + 1)

    def __contains__(self, c) -> bool:
        return frozenset(c) in self.words

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Codeword]:
        return iter(self.words)

    def sorted_words(self) -> list:
        """Codewords in the canonical order; stable across runs."""
        return sorted(self.words, key=word_key)

    def to_json_dict(self) -> dict:
        return {
            "neurons": self.n,
            "codewords": [sorted(w) for w in self.sorted_words()],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "NeuralCode":
        n = d["neurons"]
        if type(n) is not int:
            raise ValueError(f"neuron count {n!r} is not an integer")
        return cls(n, frozenset(frozenset(w) for w in d["codewords"]))

    def __str__(self) -> str:
        return "{" + ",".join(word_str(w) for w in self.sorted_words()) + "}"


def code(n: int, *words_: Iterable[int]) -> NeuralCode:
    """Convenience constructor: code(2, [], [1], [1, 2])."""
    return NeuralCode(n, frozenset(frozenset(w) for w in words_))

