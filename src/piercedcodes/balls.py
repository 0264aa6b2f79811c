"""Numeric realizations of inductively pierced codes by open balls.

A k-pierced sequence is realized in dimension k+1.  Each step picks a
point on the common boundary sphere of the pierced balls (via the
radical-hyperplane linear system), inside the sigma-balls and outside
the tau-balls, and drops a small new ball there.  Sphere intersections
are generically irrational, so the builder works in floating point with
an explicit tolerance.  Verification is exact all the same: it reads
the float centres and radii as the rationals they are, checks every
witness in ``Fraction`` arithmetic, and bounds the patterns the balls
can show by the construction's own induction.  A Sobol sample of the
bounding box is an optional, probabilistic cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .codes import NeuralCode, word_str
from .piercing import BASE_CODE, PiercingSequence, first_word_outside, pierce

# points classified at once by the sampling cross-check
SAMPLE_BLOCK = 2**14


class BallConstructionError(Exception):
    """Could not place a piercing point or ball within tolerance."""


@dataclass
class BallRealization:
    dim: int
    centers: list
    radii: list
    witnesses: dict = field(default_factory=dict)
    tolerance: float = 1e-9

    def pattern_at(self, x: np.ndarray) -> frozenset:
        return frozenset(
            i + 1
            for i, (c, r) in enumerate(zip(self.centers, self.radii))
            if np.linalg.norm(x - c) < r
        )

    def witness_margin(self, c: frozenset, x: np.ndarray) -> float:
        """Smallest distance of x to any sphere, signed to be positive
        when x is strictly on the correct side of every sphere."""
        margin = np.inf
        for i, (ctr, r) in enumerate(zip(self.centers, self.radii), 1):
            d = np.linalg.norm(x - ctr)
            signed = (r - d) if i in c else (d - r)
            margin = min(margin, signed)
        return margin

    def bounding_box(self):
        centers = np.array(self.centers)
        radii = np.array(self.radii)
        lo = (centers - radii[:, None]).min(axis=0) - 0.5
        hi = (centers + radii[:, None]).max(axis=0) + 0.5
        return lo, hi

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "centers": [list(map(float, c)) for c in self.centers],
            "radii": [float(r) for r in self.radii],
            "tolerance": self.tolerance,
            "witnesses": {
                word_str(c): list(map(float, w))
                for c, w in sorted(self.witnesses.items(), key=lambda kv: sorted(kv[0]))
            },
        }


def sphere_intersection(centers: np.ndarray, radii: np.ndarray):
    """Center, radius, and orthonormal tangent basis of the common
    boundary sphere of the given balls.

    Subtracting pairs of sphere equations gives the radical hyperplanes,
    a linear system whose solution space carries the intersection
    sphere.
    """
    m, d = centers.shape
    c0, r0 = centers[0], radii[0]
    if m == 1:
        basis = np.eye(d)
        return c0, float(r0), basis
    rows = 2 * (centers[1:] - c0)
    rhs = (
        np.sum(centers[1:] ** 2, axis=1)
        - np.sum(c0**2)
        - (radii[1:] ** 2 - r0**2)
    )
    sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    if not np.allclose(rows @ sol, rhs, atol=1e-9):
        raise BallConstructionError("radical hyperplanes are inconsistent")
    # orthonormal basis of the affine solution space
    _, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0])))
    null = vt[rank:].T
    # project c0 onto the affine subspace to find the sphere center
    q = sol + null @ (null.T @ (c0 - sol))
    h2 = r0**2 - np.sum((q - c0) ** 2)
    if h2 <= 0:
        raise BallConstructionError("spheres do not intersect transversally")
    return q, float(np.sqrt(h2)), null


def _sphere_directions(dim: int, count: int, rng) -> np.ndarray:
    if dim == 0:
        return np.zeros((1, 0))
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def build_ball_realization(
    seq: PiercingSequence,
    dim: int | None = None,
    tolerance: float = 1e-9,
    seed: int = 20240,
) -> BallRealization:
    """Replay ``seq`` with open balls in R^(k+1) (k the max piercing degree).

    Radii strictly decrease along the construction so a new ball can
    never swallow an older one; each new radius is additionally bisected
    down until every existing witness stays outside it.
    """
    k = seq.degree
    if dim is None:
        dim = max(1, k + 1)
    if dim < max(1, k + 1):
        raise ValueError(f"dimension {dim} too small for a {k}-pierced sequence")
    rng = np.random.default_rng(seed)

    centers = [np.zeros(dim)]
    radii = [1.0]
    witnesses = {
        frozenset(): np.full(dim, 2.0),
        frozenset({1}): np.zeros(dim),
    }
    code = BASE_CODE

    for step in seq:
        code = pierce(code, step)
        real = BallRealization(dim, centers, radii, witnesses, tolerance)
        p = _piercing_point(real, step, rng)
        for i in sorted(step.lam):
            if abs(np.linalg.norm(p - centers[i - 1]) - radii[i - 1]) > 1e-7:
                raise BallConstructionError("piercing point drifted off a sphere")
        r_new = _choose_radius(real, step, p)
        new_index = code.n
        new_witnesses = dict(witnesses)
        new_witnesses.update(
            _new_atom_witnesses(real, step, p, r_new, new_index)
        )
        if not step.lam:
            # the sigma-witness seeded the new ball's center; move it out
            new_witnesses[step.sigma] = _rewitness_outside(
                real, step.sigma, p, r_new, rng
            )
        centers = centers + [p]
        radii = radii + [r_new]
        witnesses = new_witnesses
        # re-certify everything at this level before continuing
        level = BallRealization(dim, centers, radii, witnesses, tolerance)
        for c in code.words:
            if level.pattern_at(witnesses[c]) != c:
                raise BallConstructionError(
                    f"witness for {sorted(c)} lost after adding ball {new_index}"
                )
    return BallRealization(dim, centers, radii, witnesses, tolerance)


def _piercing_point(real: BallRealization, step, rng) -> np.ndarray:
    """Point on every lambda-sphere, inside sigma-balls, outside tau-balls."""
    centers, radii = real.centers, real.radii

    def ok(x, margin):
        for i in sorted(step.sigma):
            if np.linalg.norm(x - centers[i - 1]) >= radii[i - 1] - margin:
                return False
        for j in sorted(step.tau):
            if np.linalg.norm(x - centers[j - 1]) <= radii[j - 1] + margin:
                return False
        return True

    if not step.lam:
        base = np.asarray(real.witnesses[step.sigma], dtype=float)
        for shrink in range(40):
            margin = 1e-3 / 2**shrink
            if ok(base, margin):
                return base.copy()
        raise BallConstructionError("sigma-witness violates the background motif")

    lam = sorted(step.lam)
    q, rho, basis = sphere_intersection(
        np.array([centers[i - 1] for i in lam]),
        np.array([radii[i - 1] for i in lam]),
    )
    tangent_dim = basis.shape[1]
    for attempt in range(200):
        margin = 1e-3 / 2 ** (attempt // 20)
        for u in _sphere_directions(tangent_dim, 40, rng):
            x = q + rho * (basis @ u) if tangent_dim else q
            if ok(x, margin):
                return x
    raise BallConstructionError("no admissible point found on the piercing sphere")


def _choose_radius(real: BallRealization, step, p: np.ndarray) -> float:
    centers, radii = real.centers, real.radii
    r = min(radii) / 4
    # stay clear of every constraint the new ball must not cross
    for i in sorted(step.sigma):
        r = min(r, (radii[i - 1] - np.linalg.norm(p - centers[i - 1])) / 2)
    for j in sorted(step.tau):
        r = min(r, (np.linalg.norm(p - centers[j - 1]) - radii[j - 1]) / 2)
    if r <= 0:
        raise BallConstructionError("no room for the new ball")
    # bisect down until no existing witness is swallowed; when lambda is
    # empty the sigma-witness sits at p itself and gets re-placed later
    protected = [
        np.asarray(w)
        for c, w in real.witnesses.items()
        if step.lam or c != step.sigma
    ]
    for _ in range(80):
        if all(np.linalg.norm(p - w) > r * 1.5 for w in protected):
            return float(r)
        r /= 2
    raise BallConstructionError("new ball keeps swallowing a witness")


def _rewitness_outside(real, codeword, p, r_new, rng):
    """A fresh point with pattern ``codeword`` just outside the new ball."""
    for dist in (2.5, 3.0, 2.1, 4.0):
        for u in _sphere_directions(real.dim, 60, rng):
            cand = p + dist * r_new * u
            if real.pattern_at(cand) == codeword and np.linalg.norm(cand - p) > r_new:
                return cand
    raise BallConstructionError(
        f"could not re-witness atom {sorted(codeword)} outside the new ball"
    )


def _new_atom_witnesses(real, step, p, r_new, new_index):
    """Witness points inside the new ball, one per orthant pattern of
    the lambda-spheres."""
    centers, radii = real.centers, real.radii
    lam = sorted(step.lam)
    out = {}
    if not lam:
        out[step.sigma | {new_index}] = p.copy()
        return out
    normals = np.array(
        [(p - centers[i - 1]) / np.linalg.norm(p - centers[i - 1]) for i in lam]
    )
    for mask in range(2 ** len(lam)):
        nu = frozenset(lam[t] for t in range(len(lam)) if mask >> t & 1)
        target = step.sigma | nu | {new_index}
        placed = None
        eps = r_new / 4
        for _ in range(60):
            signs = np.array([-1.0 if i in nu else 1.0 for i in lam])
            shift, *_ = np.linalg.lstsq(normals, signs * eps, rcond=None)
            cand = p + shift
            if np.linalg.norm(shift) < r_new and real.pattern_at(cand) | {new_index} == target:
                # must also be strictly inside the new ball around p
                if np.linalg.norm(cand - p) < r_new:
                    placed = cand
                    break
            eps /= 2
        if placed is None:
            raise BallConstructionError(
                f"could not witness new atom {sorted(target)}"
            )
        out[target] = placed
    return out


def _exact(point) -> tuple:
    return tuple(Fraction(float(x)) for x in point)


def _dist2(x, y) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(x, y))


def _exact_pattern(centers, radii, x) -> frozenset:
    return frozenset(
        i for i, (c, r) in enumerate(zip(centers, radii), 1) if _dist2(x, c) < r * r
    )


def _ball_tips(centers, radii):
    """(m, sigma, lam) per ball m: the earlier balls that contain ball m
    (sigma), and those that neither contain nor miss it (lam).

    A point whose largest ball is m lies in ball m, so in every sigma-ball
    and in no ball that misses ball m.  The tests are exact on the
    rational centres and radii.
    """
    for m, (cm, rm) in enumerate(zip(centers, radii), 1):
        sigma, lam = set(), set()
        for i, (ci, ri) in enumerate(zip(centers[: m - 1], radii), 1):
            d2 = _dist2(cm, ci)
            if ri >= rm and d2 <= (ri - rm) ** 2:
                sigma.add(i)
            elif d2 < (ri + rm) ** 2:
                lam.add(i)
        yield m, frozenset(sigma), frozenset(lam)


def _sampled_patterns(real: BallRealization, samples: int, seed: int):
    """Bitmask patterns met by a scrambled Sobol sample of the bounding
    box, and the sample size: ``samples`` rounded up to a power of 2,
    which keeps the sequence balanced.  Points are classified in blocks
    of at most SAMPLE_BLOCK, so memory does not grow with the sample."""
    # imported here so that loading the package does not load scipy
    from scipy.stats import qmc
    drawn = 1 << (samples - 1).bit_length()
    block = min(drawn, SAMPLE_BLOCK)
    lo, hi = real.bounding_box()
    sampler = qmc.Sobol(d=real.dim, scramble=True, seed=seed)
    centers = np.array(real.centers)
    radii2 = np.array(real.radii) ** 2
    weights = 1 << np.arange(len(radii2))
    found = set()
    for _ in range(drawn // block):
        pts = lo + sampler.random(block) * (hi - lo)
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        found.update(int(x) for x in np.unique((d2 < radii2) @ weights))
    return found, drawn


def verify_ball_realization(
    real: BallRealization,
    expected: NeuralCode,
    samples: int = 0,
    seed: int = 7,
) -> dict:
    """Exact check that the balls realize ``expected``.

    Every expected codeword's witness must show its pattern in exact
    arithmetic and keep a margin above tolerance, so the code is
    realized.  The inductive bound of ``_ball_tips`` must lie in the
    code, so nothing else is: the first pattern it cannot exclude is
    named in ``unexpected_patterns``.  With ``samples`` > 0 a Sobol
    sample (labelled probabilistic) is drawn as well; a pattern it meets
    outside the code can only turn the verdict false.
    """
    report = {
        "exact": True,
        "witnesses_ok": True,
        "min_witness_margin": None,
        "upper_bound_ok": True,
        "unexpected_patterns": [],
        "samples": 0,
    }
    centers = [_exact(c) for c in real.centers]
    radii = [Fraction(float(r)) for r in real.radii]
    margins = []
    for c in expected.words:
        w = real.witnesses.get(c)
        if w is None or _exact_pattern(centers, radii, _exact(w)) != c:
            report["witnesses_ok"] = False
            report.setdefault("failed_witnesses", []).append(sorted(c))
            continue
        margins.append(real.witness_margin(c, np.asarray(w)))
    if margins:
        report["min_witness_margin"] = float(min(margins))
        if min(margins) <= real.tolerance:
            report["witnesses_ok"] = False
    if set(real.witnesses) != set(expected.words):
        report["witnesses_ok"] = False

    unexpected = set()
    excess = first_word_outside(expected.words, _ball_tips(centers, radii))
    if excess is not None:
        report["upper_bound_ok"] = False
        unexpected.add(excess)
    if samples:
        found, report["samples"] = _sampled_patterns(real, samples, seed)
        sampled = {
            frozenset(i + 1 for i in range(len(radii)) if m >> i & 1) for m in found
        } - expected.words
        report["sampling_is_probabilistic"] = True
        report["sampling_ok"] = not sampled
        unexpected |= sampled
    report["unexpected_patterns"] = sorted(sorted(w) for w in unexpected)
    report["ok"] = (
        report["witnesses_ok"]
        and report["upper_bound_ok"]
        and report.get("sampling_ok", True)
    )
    return report
