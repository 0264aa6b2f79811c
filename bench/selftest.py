"""Self-tests of the benchmark's checkers: no check may pass vacuously.

    python3 bench/selftest.py

Each checker first accepts a real report of the program on a small
input, then must reject the same report after one deliberate
corruption (a dropped basis element, a moved witness, a wrong
relabelling, ...).  Exits 1 if any checker accepts a corrupted report
or rejects a true one.  Run from the repository root.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
from workloads import words_json  # noqa: E402


def frozen(words):
    return frozenset(frozenset(w) for w in words)


VENN = frozen([(), (1,), (1, 2), (2,), (1, 3), (1, 2, 3)])
# two pierced circles and a third piercing both: n=4, k=2
N4 = frozen([(), (1,), (1, 2), (2,), (2, 3), (3,), (1, 2, 3), (1, 3), (3, 4), (2, 3, 4)])
RELABELLED = frozen([(), (3,), (2, 3), (2,), (1, 3), (1, 2, 3)])
NOT_PIERCED = frozen([(), (1,), (2,), (3,), (1, 2, 3), (4,)])


def report(*argv):
    from piercedcodes import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            cli.main(list(argv), standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise
    return json.loads(buf.getvalue())


def case(name, fn, rep, corruptions):
    """fn(report) must pass on rep and raise CheckFailed on each corruption."""
    ok = True
    try:
        fn(rep)
        print(f"ok    {name}: true report accepted")
    except oracles.CheckFailed as exc:
        print(f"FAIL  {name}: true report rejected ({exc})")
        ok = False
    for label, corrupt in corruptions:
        bad = copy.deepcopy(rep)
        corrupt(bad)
        try:
            fn(bad)
        except oracles.CheckFailed as exc:
            print(f"ok    {name}: {label} rejected ({exc})")
        else:
            print(f"FAIL  {name}: {label} accepted")
            ok = False
    return ok


def swap_witnesses(r):
    w = r["realization"]["witnesses"]
    a, b = sorted(w)[:2]
    w[a], w[b] = w[b], w[a]


def drop_cf_element(r):
    r["canonical_form"].pop()


def add_non_minimal(r):
    pm = r["canonical_form"][0]
    free = [i for i in range(1, 4) if i not in pm["on"] and i not in pm["off"]]
    r["canonical_form"].append({"on": sorted(pm["on"] + free[:1]), "off": pm["off"]})


def main() -> int:
    ok = True
    for order in ("lex", "wgrevlex"):
        rep = report("toric-gb", "--order", order, "--code", words_json(N4))
        ok &= case(f"toric-gb {order}", lambda r, o=order: oracles.check_toric(N4, o, r), rep, [
            ("dropped basis element", lambda r: r["basis"].pop()),
            ("wrong max_degree", lambda r: r.update(max_degree=r["max_degree"] + 1)),
        ])
    rep = report("realize", "--mode", "hyperplane", "--code", words_json(N4))
    ok &= case("realize hyperplane", lambda r: oracles.check_hyperplane(N4, 4, r), rep, [
        ("moved witness", swap_witnesses),
        ("wrong dim", lambda r: r.update(dim=3)),
    ])
    # the true arrangement, with one codeword's witness removed, checked
    # against the code without that codeword: its region is nonempty and
    # must not be certified empty
    bad = copy.deepcopy(rep)
    bad["realization"]["witnesses"].pop("34")
    try:
        oracles.check_hyperplane(N4 - {frozenset({3, 4})}, 4, bad)
    except oracles.CheckFailed as exc:
        print(f"ok    realize hyperplane: nonempty region outside the code rejected ({exc})")
    else:
        print("FAIL  realize hyperplane: nonempty region outside the code accepted")
        ok = False
    rep = report("realize", "--mode", "ball", "--samples", "4096", "--code", words_json(VENN))
    ok &= case("realize ball", lambda r: oracles.check_ball(VENN, 3, 1, r, seed=1), rep, [
        ("moved witness", swap_witnesses),
        ("shrunk ball", lambda r: r["realization"]["radii"].__setitem__(0, 0.3)),
        ("wrong dim", lambda r: r.update(dim=3)),
    ])
    rep = report("detect", "--relabel", "--code", words_json(RELABELLED))
    ok &= case("detect pierced", lambda r: oracles.check_detect(RELABELLED, True, r), rep, [
        ("wrong relabelling", lambda r: r["sequence"]["relabeling"].reverse()),
        ("reported not pierced", lambda r: r.update(status="not_pierced", sequence=None)),
    ])
    rep = report("detect", "--relabel", "--code", words_json(NOT_PIERCED))
    ok &= case("detect not pierced", lambda r: oracles.check_detect(NOT_PIERCED, False, r), rep, [
        ("reported pierced", lambda r: r.update(status="pierced")),
    ])
    rep = report("analyze", "--code", words_json(VENN))
    ok &= case("analyze", lambda r: oracles.check_analyze(VENN, 3, r), rep, [
        ("dropped canonical form element", drop_cf_element),
        ("non-minimal element added", add_non_minimal),
        ("wrong cf_max_degree", lambda r: r.update(cf_max_degree=r["cf_max_degree"] + 1)),
        ("wrong intersection_complete",
         lambda r: r.update(intersection_complete=not r["intersection_complete"])),
        ("shelling not verified", lambda r: r.update(shelling_verified=False)),
        ("not a clique complex", lambda r: r.update(clique_complex=False)),
        ("reordered shelling", lambda r: r["shelling_order"].reverse()),
    ])
    print("all checkers reject their corruptions" if ok else "SOME CHECKS ARE VACUOUS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
