"""Numeric realizations of inductively pierced codes by open balls.

A k-pierced sequence is realized in dimension k+1 by the paper's
induction, with nothing searched for.  Each step computes its centre on
a circle of the pierced balls' common boundary that runs through (or
beside) the centre of the newest ball the step pierces or lies in: the
middle of the widest arc inside the sigma-balls and outside the
tau-balls.  A small new ball goes there.  Sphere intersections are
generically irrational, so the builder works in floating point.
Verification is exact all the same: it reads the float centres and
radii as the rationals they are, checks every witness in ``Fraction``
arithmetic, and bounds the patterns the balls can show by the
construction's own induction.  A Sobol sample of the bounding box is an
optional, probabilistic cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .codes import NeuralCode, word_str
from .piercing import BASE_CODE, PiercingSequence, first_word_outside, pierce

# points classified at once by the sampling cross-check
SAMPLE_BLOCK = 2**14
# the smallest distance of a witness to a sphere that verification accepts
WITNESS_TOLERANCE = 1e-9


class BallConstructionError(Exception):
    """A numeric fault of the ball construction: spheres that do not
    meet, a point off its sphere, a witness lost."""


@dataclass
class BallRealization:
    dim: int
    centers: list
    radii: list
    witnesses: dict = field(default_factory=dict)

    def pattern_at(self, x: np.ndarray) -> frozenset:
        # math.dist on float lists: numpy's per-call overhead dominates
        # on vectors of 2 to 4 coordinates
        p = x.tolist()
        return frozenset(
            i
            for i, (c, r) in enumerate(zip(self.centers, self.radii), 1)
            if math.dist(p, c.tolist()) < r
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
            "tolerance": WITNESS_TOLERANCE,
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


def build_ball_realization(seq: PiercingSequence, seed: int | None = None) -> BallRealization:
    """Replay ``seq`` with open balls in R^(k+1) (k the max piercing degree).

    Every centre is computed, none searched for, so ``seed`` is ignored;
    it is accepted for callers that still pass one.  Radii strictly
    decrease along the construction so a new ball can never swallow an
    older one; each new radius is additionally bisected down until every
    existing witness stays outside it.  Each witness is tested once, when
    it is placed; ``verify_ball_realization`` is the certificate.
    """
    dim = max(1, seq.degree + 1)
    witnesses = {frozenset(): np.full(dim, 2.0), frozenset({1}): np.zeros(dim)}
    real = BallRealization(dim, [np.zeros(dim)], [1.0], witnesses)
    # lams[i - 1]: the spheres that ball i's centre lies on
    lams = [frozenset()] + [step.lam for step in seq]
    code = BASE_CODE

    for step in seq:
        code = pierce(code, step)
        p = _piercing_point(real, step, lams)
        for i in sorted(step.lam):
            if abs(np.linalg.norm(p - real.centers[i - 1]) - real.radii[i - 1]) > 1e-7:
                raise BallConstructionError("piercing point drifted off a sphere")
        r_new = _choose_radius(real, step, p)
        witnesses.update(_new_atom_witnesses(real, step, p, r_new, code.n))
        real.centers.append(p)
        real.radii.append(r_new)
        if not step.lam:
            # the sigma-witness was the new centre; moved 1.5 r_new off it, it
            # is the one point that no earlier test covers
            moved = p + 1.5 * r_new * np.eye(dim)[0]
            if real.pattern_at(moved) != step.sigma:
                raise BallConstructionError(
                    f"witness for {sorted(step.sigma)} lost after adding ball {code.n}"
                )
            witnesses[step.sigma] = moved
    return real


def _directions(centers, at: np.ndarray, idx: list, signs: list) -> np.ndarray:
    """Unit least-squares directions at ``at``, one per column of
    ``signs``: along column j, sphere idx[t] (a sphere through ``at``) is
    entered (signs[t][j] = -1), left (+1) or followed (0).  An all-zero
    column, or an empty ``idx``, gives a zero direction."""
    if not idx:
        return np.zeros((len(at), 1))
    normals = np.array([at - centers[i - 1] for i in idx])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    u, *_ = np.linalg.lstsq(normals, np.array(signs, dtype=float), rcond=None)
    size = np.linalg.norm(u, axis=0)
    return u / np.where(size > 0, size, 1.0)


def _unit_across(v: np.ndarray, across: np.ndarray) -> np.ndarray:
    """``v`` less its part along the unit (or zero) vector ``across``, to
    length 1; the coordinate axis least along ``across`` instead when too
    little of ``v`` is left."""
    v = v - (v @ across) * across
    if v @ v < 1e-12:
        v = np.eye(len(v))[np.argmin(np.abs(across))]
        v = v - (v @ across) * across
    return v / np.sqrt(v @ v)


def _piercing_point(real: BallRealization, step, lams) -> np.ndarray:
    """Point on every lambda-sphere, inside sigma-balls, outside tau-balls.

    Without lambda this is the sigma-witness.  Otherwise let m be the
    largest neuron of lambda and sigma: the codewords whose largest
    neuron is m are sigma_m | nu | {m}, nu within lambda_m, so every
    lambda-sphere but sphere m passes through p_m, the centre of ball m.
    The circle used lies on the lambda-spheres' intersection, through p_m
    when m is in sigma, else through the point on the step's side of
    each other lambda_m-sphere (one least-squares solve against the
    sphere normals at p_m).  A sigma/tau sphere crosses it where
    a + A cos(t - phi) = 0; the point returned is the middle of the
    widest arc between crossings that lies inside every sigma-ball and
    outside every tau-ball.
    """
    if not step.lam:
        return np.array(real.witnesses[step.sigma], dtype=float)
    centers, radii = np.array(real.centers), np.array(real.radii)
    m = max(step.lam | step.sigma)
    near = sorted(lams[m - 1])
    side = [[0 if i in step.lam else -1 if i in step.sigma else 1] for i in near]
    u = _directions(centers, centers[m - 1], near, side)[:, 0]
    lam = [i - 1 for i in sorted(step.lam)]
    q, rho, basis = sphere_intersection(centers[lam], radii[lam])
    # the circle q + rho (cos t x_c + sin t x_s), through x_c at t = 0
    if m in step.sigma:
        start, toward = basis.T @ (centers[m - 1] - q), basis.T @ u
    else:
        start, toward = basis.T @ u, np.zeros(basis.shape[1])
    start = _unit_across(start, np.zeros_like(start))
    turn = _unit_across(toward, start)
    x_c, x_s = basis @ start, basis @ turn
    rest = [i - 1 for i in range(1, len(radii) + 1) if i not in step.lam]
    d = q - centers[rest]
    a = (d**2).sum(axis=1) + rho**2 - radii[rest] ** 2
    amp = 2 * rho * np.hypot(d @ x_c, d @ x_s)
    phase = np.arctan2(d @ x_s, d @ x_c)
    outward = np.array([-1.0 if i + 1 in step.sigma else 1.0 for i in rest])
    cut = amp > np.abs(a)
    half = np.arccos(-a[cut] / amp[cut])
    ts = np.sort(np.concatenate([phase[cut] - half, phase[cut] + half]) % (2 * np.pi))
    if not ts.size:
        ts = np.zeros(1)
    gaps = np.diff(np.append(ts, ts[0] + 2 * np.pi))
    mids = ts + gaps / 2
    values = a[:, None] + amp[:, None] * np.cos(mids[None, :] - phase[:, None])
    ok = np.all(outward[:, None] * values > 0, axis=0)
    if not ok.any():
        raise BallConstructionError("no admissible point on the piercing circle")
    t = mids[np.argmax(np.where(ok, gaps, -1.0))]
    return q + rho * (np.cos(t) * x_c + np.sin(t) * x_s)


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
    protected = [np.asarray(w) for c, w in real.witnesses.items() if step.lam or c != step.sigma]
    for _ in range(80):
        if all(np.linalg.norm(p - w) > r * 1.5 for w in protected):
            return float(r)
        r /= 2
    raise BallConstructionError("new ball keeps swallowing a witness")


def _new_atom_witnesses(real, step, p, r_new, new_index):
    """Witness points inside the new ball, one per orthant pattern of
    the lambda-spheres: p + (r_new / 2^j) u, u the least-squares
    direction into the orthant, for the first j >= 2 that shows it."""
    lam = sorted(step.lam)
    masks = range(2 ** len(lam))
    # column ``mask`` enters the spheres of nu and leaves the others
    signs = [[-1 if mask >> t & 1 else 1 for mask in masks] for t in range(len(lam))]
    units = _directions(real.centers, p, lam, signs)
    out = {}
    for mask in masks:
        nu = frozenset(lam[t] for t in range(len(lam)) if mask >> t & 1)
        target = step.sigma | nu | {new_index}
        for j in range(2, 60):
            cand = p + r_new / 2**j * units[:, mask]
            if real.pattern_at(cand) | {new_index} == target:
                out[target] = cand
                break
        else:
            raise BallConstructionError(f"could not witness new atom {sorted(target)}")
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
    sampler = qmc.Sobol(d=real.dim, scramble=True, seed=seed)
    # arrays run ball by coordinate by point, so that the long axis is the
    # inner, contiguous one
    lo, hi = (x[:, None] for x in real.bounding_box())
    centers = np.array(real.centers)[:, :, None]
    radii2 = np.array(real.radii)[:, None] ** 2
    weights = 1 << np.arange(len(radii2))
    found = np.zeros(0, dtype=weights.dtype)
    for _ in range(drawn // block):
        diff = lo + np.ascontiguousarray(sampler.random(block).T) * (hi - lo) - centers
        patterns = weights @ (np.einsum("ijk,ijk->ik", diff, diff) < radii2)
        # most points repeat a pattern already found; only the rest are sorted
        found = np.union1d(found, patterns[~np.isin(patterns, found)])
    return set(found.tolist()), drawn


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
        if min(margins) <= WITNESS_TOLERANCE:
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
