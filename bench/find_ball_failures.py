"""List the pierced codes on which `realize --mode ball` cannot build balls.

    python3 bench/find_ball_failures.py > bench/ball_failures.txt

For every code of ``enumerate_pierced_codes(5, 3)`` on exactly 5
neurons, runs the ball construction the CLI runs (the construction-label
piercing sequence, seed 7) and prints each code whose construction
raises ``BallConstructionError``, one JSON codeword list a line, then
the count.  ``workloads.py`` reads the stored output, so that the
`realize` list leaves these codes out without calling the program.
Run from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from piercedcodes.balls import BallConstructionError, build_ball_realization  # noqa: E402
from piercedcodes.piercing import enumerate_pierced_codes  # noqa: E402
from workloads import CLI_BALL_SEED, canonical, words_json  # noqa: E402


def main() -> int:
    failing = []
    total = 0
    for c, seq in enumerate_pierced_codes(5, 3):
        if c.n != 5:
            continue
        total += 1
        try:
            build_ball_realization(seq, seed=CLI_BALL_SEED)
        except BallConstructionError:
            failing.append(c)
    for c in canonical(failing):
        print(words_json(c.words))
    print(f"# {len(failing)} of {total} codes on 5 neurons fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
