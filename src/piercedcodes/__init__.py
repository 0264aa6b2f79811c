"""Inductively pierced neural codes: construction, certification, and realization."""

from .codes import NeuralCode, code, word
from .piercing import (
    PiercingSequence,
    PiercingStep,
    enumerate_pierced_codes,
    is_pierceable,
    pierce,
    recover_piercing_sequence,
    replay,
)

__all__ = [
    "NeuralCode",
    "code",
    "word",
    "PiercingStep",
    "PiercingSequence",
    "is_pierceable",
    "pierce",
    "recover_piercing_sequence",
    "replay",
    "enumerate_pierced_codes",
]
