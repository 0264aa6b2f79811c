"""Seeded input lists for the four benchmark workloads.

Every workload is a fixed list of CLI operations that a run repeats in
whole rounds.  The list depends only on the workload name and the seed,
so two runs with the same seed do the same work; it does not depend on
the program, which is only asked to enumerate codes.  Different seeds
draw different codes but keep the make-up of the list (how many
operations of each kind and size class) fixed, which keeps the figures
comparable across seeds.  The make-up and the reasons for it are in
README.md.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# --- list make-up ---------------------------------------------------------
#
# Operations whose cost varies most from code to code, and those on
# which the median falls, run on fixed codes, so the figures read the
# program and not the draw; the rest, and the order, come from the seed.
#
# scan-lex / scan-wgrevlex: n=5, k<=2 codes.  The 16-codeword codes are
# the costly ones (0.4-1.9 s each), two thirds of a round; the
# 12-codeword codes (30-250 ms) hold code_ms_p50.
SCAN_HEAVY = 9           # fixed 16-codeword codes, evenly spaced of the 66
SCAN_LIGHT = 50          # fixed n=5 codes with 12 codewords, of the 384
SCAN_SMALL = 20          # seeded codes with fewer than 12 codewords
#
# realize: n=5, k<=3 codes from the enumeration plus one n=6 code.
# Seeded n=5 codes in ball mode, by piercing degree k: the balls live in
# R^(k+1), so the cost grows with k and the mix of k is fixed.
REALIZE_BALL = {1: 6, 2: 6, 3: 1}
REALIZE_HYPERPLANE = 5   # fixed n=5 codes, hyperplane mode
#
# classify: fixed pierced n=7 and n=8 codes with k<=2, built by random
# piercing from a constant seed (they hold the median and most of the
# round's time).
CLASSIFY_ANALYZE = {7: 30, 8: 6}
# detect --relabel on non-pierced codes: singleton count -> how many.
# Relabelled pierced codes are left out: on most of them the returned
# sequence does not replay (see the FOUND line in CHANGES.md), and how
# many depends on the seed.
CLASSIFY_NOT_PIERCED = {5: 10, 6: 6, 7: 4}

# The n=5 codes of enumerate_pierced_codes(5, 3) on which `realize
# --mode ball` raises BallConstructionError at the CLI seed, as printed
# by find_ball_failures.py.  Seeded draws leave them out; the first of
# them runs in every round of `realize` and counts as a failed operation.
BALL_FAILURES_FILE = Path(__file__).resolve().parent / "ball_failures.txt"

# Small cores that no labelling makes pierced; see README.md for why.
NOT_PIERCED_CORES = (
    ((), (1,), (2,), (3,), (1, 2, 3)),
    ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)),
    ((), (1,), (2,), (1, 2), (1, 3), (2, 3)),
)

CLI_BALL_SEED = 7  # the CLI's default --seed for realize


@dataclass(frozen=True)
class Op:
    """One CLI call and what the checker needs to know about its input."""

    kind: str                 # toric | hyperplane | ball | analyze | detect
    argv: tuple
    words: frozenset          # the input code, in the labels passed to the CLI
    n: int
    k: Optional[int] = None   # piercing degree, when the code is pierced
    pierced: Optional[bool] = None
    order: Optional[str] = None
    expect_failure: bool = False


def words_json(words) -> str:
    return json.dumps(sorted(sorted(w) for w in words))


def canonical(codes) -> list:
    """Codes sorted by their codeword lists, so that a draw from them does
    not depend on the order in which the program enumerates."""
    return sorted(codes, key=lambda c: words_json(c.words))


def spaced(items: list, count: int) -> list:
    """``count`` items evenly spaced through ``items``."""
    return [items[i * len(items) // count] for i in range(count)]


def ball_failures() -> dict:
    """The stored failing codes, as a dict (in file order) for membership tests."""
    lines = BALL_FAILURES_FILE.read_text().splitlines()
    return dict.fromkeys(_frozen(json.loads(line)) for line in lines if line.startswith("["))


def _frozen(words) -> frozenset:
    return frozenset(frozenset(w) for w in words)


def _subsets(s):
    items = sorted(s)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def admissible_steps(words, m: int, max_k: int):
    """Every (lambda, sigma) with |lambda| <= max_k that may pierce ``words``.

    Written apart from the program: the test is the definition (sigma | nu
    is a codeword for every nu within lambda); tau is the rest of [m].
    """
    for assignment in itertools.product((0, 1, 2), repeat=m):
        lam = frozenset(i + 1 for i in range(m) if assignment[i] == 0)
        sigma = frozenset(i + 1 for i in range(m) if assignment[i] == 1)
        if len(lam) <= max_k and all(sigma | nu in words for nu in _subsets(lam)):
            yield lam, sigma


def pierce_words(words, lam, sigma, new: int) -> frozenset:
    return frozenset(words) | {sigma | nu | {new} for nu in _subsets(lam)}


def random_pierced_code(n: int, max_k: int, rng: random.Random) -> frozenset:
    """A code on n neurons built by n-1 uniformly chosen admissible piercings."""
    words = frozenset({frozenset(), frozenset({1})})
    for m in range(1, n):
        lam, sigma = rng.choice(list(admissible_steps(words, m, max_k)))
        words = pierce_words(words, lam, sigma, m + 1)
    return words


def relabel(words, perm) -> frozenset:
    """Apply the label map i -> perm[i-1] to every codeword."""
    return frozenset(frozenset(perm[i - 1] for i in w) for w in words)


def piercing_degree(words, n: int) -> int:
    """Largest |lambda| of the piercings that add neurons 2..n in label order.

    In construction labels the family {c - {j} : j in c, max(c) <= j} of
    neuron j is the interval from sigma to sigma | lambda.
    """
    k = 0
    for j in range(2, n + 1):
        family = [w - {j} for w in words if j in w and max(w) <= j]
        k = max(k, len(frozenset().union(*family) - frozenset.intersection(*family)))
    return k


def _enumerated(max_n, max_k) -> list:
    from piercedcodes.piercing import enumerate_pierced_codes

    return [c for c, _ in enumerate_pierced_codes(max_n, max_k)]


def _toric_op(words, n, order):
    return Op("toric", ("toric-gb", "--order", order, "--code", words_json(words)),
              words, n, order=order)


def _realize_op(mode, words, n, k, expect_failure=False):
    return Op(mode, ("realize", "--mode", mode, "--code", words_json(words)),
              words, n, k=k, expect_failure=expect_failure)


def scan_ops(seed: int, order: str) -> list:
    rng = random.Random(seed)
    codes = canonical(_enumerated(5, 2))
    n5 = [c for c in codes if c.n == 5]
    heavy = spaced([c for c in n5 if len(c.words) == 16], SCAN_HEAVY)
    light = spaced([c for c in n5 if len(c.words) == 12], SCAN_LIGHT)
    small = rng.sample([c for c in codes if 2 <= len(c.words) < 12], SCAN_SMALL)
    chosen = heavy + light + small
    ops = [_toric_op(c.words, c.n, order) for c in chosen]
    rng.shuffle(ops)
    return ops


def realize_ops(seed: int) -> list:
    rng = random.Random(seed)
    failing = ball_failures()
    n5 = [c.words for c in canonical(_enumerated(5, 3))
          if c.n == 5 and c.words not in failing]

    def op(mode, words, expect_failure=False):
        return _realize_op(mode, words, 5, piercing_degree(words, 5), expect_failure)

    # Hyperplane operations run on fixed codes, drawn from a constant
    # seed: their cost varies threefold with the code, and a third of the
    # round would otherwise read the draw.  Ball operations, whose cost
    # is mostly the 10^6-point sample, come from the seed.
    fixed = random.Random(0)
    by_degree: dict = {}
    for words in n5:
        by_degree.setdefault(piercing_degree(words, 5), []).append(words)
    ops = [op("ball", words) for k, count in REALIZE_BALL.items()
           for words in rng.sample(by_degree[k], count)]
    ops += [op("hyperplane", words) for words in fixed.sample(n5, REALIZE_HYPERPLANE)]

    # a fixed n=6 code, in both modes: one more piercing, with
    # |lambda| = 3, of a fixed n=5 code.  Its 2^6 exact LPs make the
    # largest single operation, and its 6 balls in R^4 set peak memory.
    while True:
        words = fixed.choice(n5)
        steps = [st for st in admissible_steps(words, 5, 3) if len(st[0]) == 3]
        if steps:
            lam, sigma = fixed.choice(steps)
            break
    words = pierce_words(words, lam, sigma, 6)
    ops.append(_realize_op("hyperplane", words, 6, 3))
    ops.append(_realize_op("ball", words, 6, 3))
    ops.append(op("ball", next(iter(failing)), expect_failure=True))
    rng.shuffle(ops)
    return ops


def classify_ops(seed: int) -> list:
    rng = random.Random(seed)
    fixed = random.Random(0)
    ops = []
    for n, count in CLASSIFY_ANALYZE.items():
        seen = set()
        while len(seen) < count:
            words = random_pierced_code(n, 2, fixed)
            if words not in seen:
                seen.add(words)
                ops.append(Op("analyze", ("analyze", "--code", words_json(words)), words, n))
    for singletons, count in CLASSIFY_NOT_PIERCED.items():
        for j in range(count):
            # cores in turn (their searches differ in cost); the seed relabels
            core = _frozen(NOT_PIERCED_CORES[j % len(NOT_PIERCED_CORES)])
            n = 3 + singletons
            words = core | {frozenset({3 + i}) for i in range(1, singletons + 1)}
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            moved = relabel(words, perm)
            ops.append(Op("detect", ("detect", "--relabel", "--code", words_json(moved)),
                          moved, n, pierced=False))
    rng.shuffle(ops)
    return ops


# A small fixed operation of the workload's kind, run before timing so
# that lazy imports and first-call costs fall into set-up.
def warmup_op(workload: str) -> Op:
    venn = _frozen([(), (1,), (1, 2), (2,), (1, 3), (1, 2, 3)])
    if workload == "scan-lex":
        return _toric_op(venn, 3, "lex")
    if workload == "scan-wgrevlex":
        return _toric_op(venn, 3, "wgrevlex")
    if workload == "realize":
        return _realize_op("ball", venn, 3, 1)
    return Op("analyze", ("analyze", "--code", words_json(venn)), venn, 3)


WORKLOADS = {
    "scan-lex": lambda seed: scan_ops(seed, "lex"),
    "scan-wgrevlex": lambda seed: scan_ops(seed, "wgrevlex"),
    "realize": realize_ops,
    "classify": classify_ops,
}
