"""Self-tests of the benchmark's oracles: each must pass a right answer and
reject a deliberately wrong one.

Run `python3 benchmarks/selftest.py`; it prints one line per case and exits
non-zero when an oracle accepts a wrong answer or rejects a right one.
`run.py` runs the same cases before every benchmark run.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from workloads import Op  # noqa: E402

CP2 = {"model": {"type": "projective", "n": 2, "N": 3, "weight_basis": [[2, 3], [1, 2]],
                 "constant": ["3/2", "5/2"]}}
EXPLICIT = {"explicit": {"rank": 2, "dim": 2, "fixed_points": [
    {"name": "z0", "weights": [[1, 0], [0, 1]], "momentum": ["1/2", "1/2"]},
    {"name": "z1", "weights": [[-1, 0], [-1, 1]], "momentum": ["-5/2", "3/2"]},
]}}
OSC = {"model": {"type": "oscillator_t1", "n": 3, "shifted": True}, "window": [[-2, 1]]}


def _pt(p):
    return "(" + ", ".join(str(c) for c in p) + ")"


def levels_human(levels, reductions=True):
    lines = ["command: levels", f"quantized levels ({len(levels)}):"]
    lines += ["  " + _pt(p) for p in levels]
    lines.append(f"count: {len(levels)}")
    if reductions and levels:
        lines.append("reductions:")
        lines += [f"  level {_pt(p)}: reduced dim 0  [reduction is a point; multiplicity one]"
                  for p in levels]
    return "\n".join(lines) + "\n"


def check_human(doc, flip=False):
    rows = oracles.defects(doc)
    overall = all(all(e == 0 for e in d) for _, _, d in rows) != flip
    lines = ["command: check", f"equivariant: {'yes' if overall else 'no'}",
             "fixed point  half-sum  defect"]
    lines += [f"{name}  {_pt(h)}  {_pt(d)}" for name, h, d in rows]
    return "\n".join(lines) + "\n", 0 if overall else 1


def holonomy_machine(doc, negate=False):
    rows = []
    for x in (Fraction(m, 2) for m in range(-4, 3)):
        if x >= Fraction(3, 2):
            continue
        closed = cmath.exp(-2j * math.pi * float(x - math.floor(x)))
        numeric = -closed if negate else closed
        rows.append({"level": [str(x)], "xi": [1], "numeric": [numeric.real, numeric.imag],
                     "closed": [closed.real, closed.imag], "agreement": 0.0,
                     "trivial": x.denominator == 1})
    return json.dumps({"command": "holonomy", "holonomy": rows})


def svg_text(n_levels, names):
    marks = "\n".join(f'<circle cx="1" cy="1" {oracles.LEVEL_MARK}/>' for _ in range(n_levels))
    labels = "\n".join(f'<text x="0" y="0">{n}</text>' for n in names)
    return f"<svg>\n{marks}\n{labels}\n</svg>\n".encode()


def cases():
    """(name, problems for the right answer, problems for the wrong one)."""
    levels = oracles.expected_levels(CP2, [])
    op = Op("cp2", "levels", CP2, ["--format", "human"])
    yield ("CP^2 level list off by one",
           oracles.check_cli(op, 0, levels_human(levels), ""),
           oracles.check_cli(op, 0, levels_human(levels[:-1]), ""))
    shifted = [[p[0] + 1, p[1]] for p in levels]
    yield ("CP^2 levels moved by one lattice step",
           [], oracles.check_cli(op, 0, levels_human(shifted), ""))

    op = Op("check", "check", EXPLICIT, ["--format", "human"])
    right, rc = check_human(EXPLICIT)
    wrong, wrong_rc = check_human(EXPLICIT, flip=True)
    yield ("flipped equivariance verdict",
           oracles.check_cli(op, rc, right, ""),
           oracles.check_cli(op, wrong_rc, wrong, ""))
    yield ("right verdict with the wrong exit code",
           [], oracles.check_cli(op, 1 - rc, right, ""))

    op = Op("shift", "shift", CP2, ["--format", "machine"])
    shift = [str(c) for c in oracles.demanded_shifts(CP2)[0]]
    off = [str(Fraction(shift[0]) + Fraction(1, 2)), shift[1]]
    yield ("shift off by one half",
           oracles.check_cli(op, 0, json.dumps({"command": "shift", "shift": shift}), ""),
           oracles.check_cli(op, 0, json.dumps({"command": "shift", "shift": off}), ""))

    op = Op("holonomy", "holonomy", OSC, ["--format", "machine", "--steps", "1000"])
    yield ("holonomy phase negated",
           oracles.check_cli(op, 0, holonomy_machine(OSC), ""),
           oracles.check_cli(op, 0, holonomy_machine(OSC, negate=True), ""))

    op = Op("render", "render", CP2, ["--format", "human"])
    names = [name for name, _, _ in oracles.fixed_points(CP2)]
    human = levels_human(levels, reductions=False).replace("command: levels", "command: render")
    yield ("SVG missing one level marker",
           oracles.check_cli(op, 0, human, "", svg_text(len(levels), names)),
           oracles.check_cli(op, 0, human, "", svg_text(len(levels) - 1, names)))

    bad = Op("bad", "check", None, [], malformed=True, text="{")
    yield ("malformed document accepted",
           oracles.check_cli(bad, 2, "", "error: invalid JSON\n"),
           oracles.check_cli(bad, 0, "", ""))
    yield ("malformed document ending in a traceback",
           [], oracles.check_cli(bad, 1, "", "Traceback (most recent call last):\nTypeError\n"))

    spec = {"path": "rotation", "weights": [1, 2, 2], "coarse": False}
    yield ("mu with the wrong sign",
           oracles.check_branch(spec, complex(-1.0), None),
           oracles.check_branch(spec, complex(1.0), None))
    spec = {"path": "unitary", "trace": 1.3, "coarse": False}
    yield ("mu conjugated on exp(itH)",
           oracles.check_branch(spec, cmath.exp(-0.65j), None),
           oracles.check_branch(spec, cmath.exp(0.65j), None))
    spec = {"path": "rotation", "weights": [120], "coarse": True}
    yield ("coarse path tracked instead of rejected",
           oracles.check_branch(spec, None, "StepTooCoarseError"),
           oracles.check_branch(spec, complex(1.0), None))


def run_selftests(verbose=False) -> list:
    """Names of the cases where an oracle failed; empty when all passed."""
    broken = []
    for name, right, wrong in cases():
        ok = not right and bool(wrong)
        if verbose:
            status = "PASS" if ok else "FAIL"
            detail = f"rejected: {wrong[0]}" if wrong else "wrong answer accepted"
            if right:
                detail = f"right answer rejected: {right[0]}"
            print(f"{status} {name}: {detail}")
        if not ok:
            broken.append(name)
    return broken


if __name__ == "__main__":
    sys.exit(1 if run_selftests(verbose=True) else 0)
