"""Seeded document generators for the four workloads.

Each workload is an endless sequence of cycles, each cycle a list of
operations of fixed kinds in a fixed, evenly interleaved order; the seed
picks the parameters inside every kind (sizes, bases, weights, windows),
never the kinds or their order.  A run measures whole cycles, so it sees the
same mix whatever the seed, which keeps medians steady from seed to seed,
while the documents themselves change with the seed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Op:
    """One benchmark operation: a CLI call on a document, or one
    `track_sqrt` call described by `spec`."""

    kind: str
    command: str
    doc: object = None
    flags: list = field(default_factory=list)
    malformed: bool = False
    missing: bool = False  # point --input at a file that does not exist
    text: str = None  # raw document text when `doc` must not be re-serialized
    spec: dict = None

    def document_text(self) -> str:
        if self.text is not None:
            return self.text
        return json.dumps(self.doc, sort_keys=True) + "\n"


def _q(x: Fraction) -> str:
    return str(Fraction(x))


def _interleave(*groups) -> list:
    """Merge lists so that each is spread evenly over the result."""
    keyed = [((i + 0.5) / len(g), k, item) for k, g in enumerate(groups) for i, item in enumerate(g)]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


# ------------------------------------------------------------------ lattice

def _box_factor(basis) -> int:
    """Area of the bounding box of the triangle {0, k1, k2}, whose own area
    is 1/2: at scale lam the scan's box holds about lam^2 * factor points
    for lam^2 / 2 levels."""
    pts = [(0, 0)] + [tuple(w) for w in basis]
    wx = max(p[0] for p in pts) - min(p[0] for p in pts)
    wy = max(p[1] for p in pts) - min(p[1] for p in pts)
    return wx * wy


def _unimodular_bases(bound=5):
    out = []
    rng = range(-bound, bound + 1)
    for a, b, c, d in itertools.product(rng, rng, rng, rng):
        if a * d - b * c in (1, -1):
            out.append(((a, b), (c, d)))
    return out


# box factor of each basis class; the scan's yield is 1 / (2 * factor), so
# 0.5, 0.125 and 0.033.  One factor per class keeps the cost of a class at a
# given N the same whichever of its bases the seed picks.
BASIS_CLASSES = {"standard": 1, "mild": 4, "skewed": 15}
BASES = {
    name: [b for b in _unimodular_bases() if _box_factor(b) == factor]
    for name, factor in BASIS_CLASSES.items()
}


def solved_constant(basis) -> list:
    return [_q(Fraction(sum(w[a] for w in basis), 2)) for a in range(len(basis))]


def cp2_doc(rng, big_n, cls) -> dict:
    basis = rng.choice(BASES[cls])
    return {
        "model": {
            "type": "projective",
            "n": 2,
            "N": big_n,
            "weight_basis": [list(w) for w in basis],
            "constant": solved_constant(basis),
        }
    }


LATTICE_COMMANDS = [("levels", "human"), ("levels", "machine"), ("render", None)]
LATTICE_CLASSES = list(BASIS_CLASSES)
# N range per basis class: the scan visits about (N + 3/2)^2 * factor box
# points, so the skewed classes stop at smaller N to keep one run's sample
# count up.  Each range is cut into four strata visited in turn.  Within a
# stratum, cycle k sits at golden-ratio offset k * 0.618 (mod 1) plus a
# seeded jitter of 5% of the stratum: successive cycles fill the stratum
# evenly, so the sizes a run covers are spread densely and are nearly the
# same for every seed.
LATTICE_N_RANGE = {"standard": (20, 150), "mild": (20, 110), "skewed": (20, 90)}
LATTICE_STRATA = 4
GOLDEN = 0.6180339887


def _stratum(rng, cls, s, cycle) -> int:
    lo, hi = LATTICE_N_RANGE[cls]
    width = (hi - lo) / LATTICE_STRATA
    offset = (0.5 + GOLDEN * cycle + 0.05 * rng.random()) % 1.0
    return int(lo + width * (s + offset))


def _window_flag(window) -> list:
    return ["--window", "x".join(f"{lo},{hi}" for lo, hi in window)]


def lattice_ops(seed: int):
    """CP^2 `levels` (human and machine) and `render` over four N strata and
    three basis classes, plus `levels` on oscillator_tn n=3 over a 3-D window
    and on oscillator_t1 over a long 1-D window."""
    rng = random.Random(f"lattice:{seed}")
    for cycle in itertools.count():
        cp2 = []
        for c, (command, fmt) in enumerate(LATTICE_COMMANDS):
            fmt = fmt or ("machine" if cycle % 2 else "human")
            for s in range(LATTICE_STRATA):
                cls = LATTICE_CLASSES[(s + c) % 3]
                doc = cp2_doc(rng, _stratum(rng, cls, s, cycle), cls)
                cp2.append(Op(f"cp2-{command}-{fmt}-{cls}", command, doc, ["--format", fmt]))
        oscillators = []
        for k, fmt in enumerate(("human", "machine")):
            a = rng.randint(5, 9)
            oscillators.append(Op(
                "tn3-levels", "levels",
                {"model": {"type": "oscillator_tn", "n": 3}, "window": [[-a, 1]] * 3},
                ["--format", fmt],
            ))
            n = 1 + (2 * cycle + k) % 6
            length = rng.randint(200, 500)
            oscillators.append(Op(
                "t1-levels", "levels", {"model": {"type": "oscillator_t1", "n": n, "shifted": True}},
                ["--format", fmt] + _window_flag([(-length, n)]),
            ))
        yield _interleave(cp2, oscillators)


# ----------------------------------------------------------------- holonomy

PLANCK = ["1", "1/2", "3", "2/3", "5/4", "1"]


def holonomy_ops(seed: int):
    """Orbit holonomy tables on oscillator_t1 (n = 1..6) and oscillator_tn
    (n = 2, 3), with 10^3 or 10^4 quadrature steps, several Planck
    constants, and unshifted odd-n models that must exit 1.

    The cost of a table is its orbit count times its step count; both follow
    a fixed pattern over the cycles, so every run covers the same costs.
    The seed picks the Planck constants and the unshifted models."""
    rng = random.Random(f"holonomy:{seed}")
    for cycle in itertools.count():
        t1, tn, unshifted = [], [], []
        for n in (1, 4, 2, 5, 3, 6):
            steps = 1000 if (n + cycle) % 6 == 0 else 10000
            doc = {"model": {"type": "oscillator_t1", "n": n, "shifted": True},
                   "window": [[-(2 + (n + cycle) % 3), n]]}
            h = rng.choice(PLANCK)
            if h != "1":
                doc["planck_h"] = h
            t1.append(Op(f"t1-holonomy-{steps}", "holonomy", doc,
                         ["--format", "machine", "--steps", str(steps)]))
        tn.append(Op(
            "tn2-holonomy-10000", "holonomy",
            {"model": {"type": "oscillator_tn", "n": 2}, "window": [[-1, 0], [-1, 0]],
             "planck_h": rng.choice(PLANCK)},
            ["--format", "machine", "--steps", "10000"],
        ))
        tn.append(Op(
            "tn3-holonomy-1000", "holonomy",
            {"model": {"type": "oscillator_tn", "n": 3}, "window": [[-1, 0]] * 3,
             "planck_h": rng.choice(PLANCK)},
            ["--format", "machine", "--steps", "1000"],
        ))
        for _ in range(2):
            n = rng.choice((1, 3, 5))
            unshifted.append(Op(
                "t1-unshifted-holonomy", "holonomy",
                {"model": {"type": "oscillator_t1", "n": n, "shifted": False}},
                ["--format", "machine", "--steps", "1000"] + _window_flag([(-3, 0)]),
            ))
        yield _interleave(t1, tn, unshifted)


# ----------------------------------------------------------------- verdicts

def _rand_frac(rng, lo, hi, dens=(1, 2, 3, 4)) -> Fraction:
    den = rng.choice(dens)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _nonzero_offset(rng, rank):
    while True:
        c = [Fraction(rng.randint(0, d - 1), d) for d in (rng.choice((2, 3, 4)) for _ in range(rank))]
        if any(c):
            return c


def explicit_doc(rng, rank, kind) -> dict:
    """Explicit fixed-point data of one of three kinds: `equivariant`
    (momentum = half_sum + integers), `fixable` (one common fractional
    offset) or `inconsistent` (the fixed points demand different shifts)."""
    dim = rank + rng.randint(0, 2)
    n_points = rng.randint(2, 5)
    common = _nonzero_offset(rng, rank)
    fps = []
    for i in range(n_points):
        weights = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(dim)]
        hs = [Fraction(sum(w[a] for w in weights), 2) for a in range(rank)]
        if kind == "equivariant":
            off = [Fraction(0)] * rank
        elif kind == "fixable":
            off = common
        else:
            off = common if i else [c + Fraction(1, 2) for c in common]
        mom = [h + rng.randint(-4, 4) + o for h, o in zip(hs, off)]
        fps.append({"name": f"z{i}", "weights": weights, "momentum": [_q(m) for m in mom]})
    return {"explicit": {"rank": rank, "dim": dim, "fixed_points": fps}}


def polygon_doc(rng, n_points) -> dict:
    """Rank-2 explicit data whose momenta lie near an ellipse, so most of
    the n_points fixed points are hull vertices."""
    rx, ry = rng.randint(4, 7), rng.randint(4, 7)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n_points))
    fps = []
    for i, t in enumerate(angles):
        x = Fraction(round(4 * rx * math.cos(t)), 4)
        y = Fraction(round(4 * ry * math.sin(t)), 4)
        weights = [[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(2)]
        fps.append({"name": f"p{i}", "weights": weights, "momentum": [_q(x), _q(y)]})
    return {"explicit": {"rank": 2, "dim": 2, "fixed_points": fps}}


def rank3_polyhedron(rng) -> dict:
    """A rational simplex x_a >= -b_a, sum(x) <= s, as halfspaces."""
    hs = [
        {"normal": [-1 if a == j else 0 for a in range(3)], "offset": _q(_rand_frac(rng, 1, 3))}
        for j in range(3)
    ]
    hs.append({"normal": [1, 1, 1], "offset": _q(_rand_frac(rng, 0, 3))})
    return {"halfspaces": hs}


VERDICT_KINDS = ["equivariant", "fixable", "inconsistent"]
VERDICT_COMMANDS = ["check", "shift", "levels"]
POLYGON_STRATA = [(4, 10), (11, 20), (21, 30), (31, 40)]


def _with_levels_bounds(rng, doc, rank) -> list:
    """Rank 3 needs halfspaces and a window; lower ranks get a small window
    flag half of the time."""
    if rank == 3:
        doc["explicit"]["polyhedron"] = rank3_polyhedron(rng)
        return _window_flag([(-3, 3)] * 3)
    if rng.random() < 0.5:
        return _window_flag([(-3, 3)] * rank)
    return []


def _malformed_catalogue(rng):
    """Fixed list of document mutations that must all exit 2.  The first,
    fifth and tenth are defects of the seed program (a traceback with exit
    1, CP^2 accepted with K/hbar <= 0, a non-string flag note accepted);
    they stay in the mix and count as failures."""
    def explicit2():
        return explicit_doc(rng, 2, "equivariant")

    def cp2(big_n=3):
        return cp2_doc(rng, big_n, "standard")

    def halfspaces_not_a_list():
        d = explicit2()
        d["explicit"]["polyhedron"] = {"halfspaces": 3}
        return "levels", d, None

    def invalid_json():
        return "check", None, json.dumps(explicit2())[:-7]

    def unknown_field():
        d = explicit2()
        d["colour"] = "red"
        return "shift", d, None

    def float_rational():
        d = explicit2()
        text = json.dumps(d).replace(json.dumps(d["explicit"]["fixed_points"][0]["momentum"][0]), "0.5", 1)
        return "check", None, text

    def nonpositive_scale():
        return "levels", cp2(-2 - rng.randint(0, 3)), None

    def model_and_explicit():
        d = explicit2()
        d["model"] = {"type": "oscillator_t1", "n": 2}
        return "check", d, None

    def zero_denominator():
        d = explicit2()
        d["explicit"]["fixed_points"][0]["momentum"][0] = "1/0"
        return "shift", d, None

    def empty_window():
        d = explicit2()
        d["window"] = [[2, -2], [0, 1]]
        return "levels", d, None

    def zero_planck():
        return "check", dict(cp2(), planck_h="0"), None

    def note_not_a_string():
        d = explicit2()
        d["explicit"]["flags"] = {"mpc_note": 5}
        return "check", d, None

    def unknown_model():
        return "levels", {"model": {"type": "sphere", "n": 2}}, None

    def weight_length():
        d = explicit2()
        d["explicit"]["fixed_points"][0]["weights"][0].append(1)
        return "check", d, None

    def non_unimodular():
        d = cp2()
        d["model"]["weight_basis"] = [[2, 0], [0, 1]]
        return "levels", d, None

    def zero_oscillator():
        return "check", {"model": {"type": "oscillator_t1", "n": 0}}, None

    def missing_file():
        return "shift", None, None

    return [
        halfspaces_not_a_list, invalid_json, unknown_field, float_rational,
        nonpositive_scale, model_and_explicit, zero_denominator, empty_window,
        zero_planck, note_not_a_string, unknown_model, weight_length,
        non_unimodular, zero_oscillator, missing_file,
    ]


def verdicts_ops(seed: int):
    """Small documents through `check`, `shift` and `levels`: explicit data
    at ranks 1-3 in three kinds, rank-2 polygons with 4-40 fixed points,
    model documents, and one malformed document in ten."""
    rng = random.Random(f"verdicts:{seed}")
    catalogue = _malformed_catalogue(rng)
    malformed = 0
    for cycle in itertools.count():
        explicit, polygons, models = [], [], []
        for i in range(9):
            rank, kind = 1 + i % 3, VERDICT_KINDS[i // 3]
            command = VERDICT_COMMANDS[(i % 3 + i // 3 + cycle) % 3]
            doc = explicit_doc(rng, rank, kind)
            flags = _with_levels_bounds(rng, doc, rank) if command == "levels" else []
            explicit.append(Op(f"explicit-r{rank}-{kind}-{command}", command, doc, flags))
        for s, (lo, hi) in enumerate(POLYGON_STRATA):
            # the two larger strata always need the O(g^3) hull
            command = "levels" if s >= 2 else VERDICT_COMMANDS[(s + cycle) % 3]
            flags = _window_flag([(-6, 6)] * 2) if command == "levels" else []
            g = lo + int((hi - lo + 1) * ((GOLDEN * cycle + 0.1 * rng.random()) % 1.0))
            polygons.append(Op(f"polygon-{lo}-{hi}-{command}", command,
                               polygon_doc(rng, g), flags))
        basis = rng.choice(BASES[rng.choice(LATTICE_CLASSES)])
        const = [_q(Fraction(c) + o) for c, o in
                 zip(solved_constant(basis), rng.choice(([0, 0], [Fraction(1, 2), 0], [0, Fraction(1, 3)])))]
        cp2 = {"model": {"type": "projective", "n": 2, "N": rng.randint(0, 12),
                         "weight_basis": [list(w) for w in basis], "constant": const}}
        n = rng.randint(1, 6)
        models = [
            Op("cp2-check", "check", cp2, []),
            Op("t1-check", "check",
               {"model": {"type": "oscillator_t1", "n": n, "shifted": rng.random() < 0.5}}, []),
            Op("cp2-shift", "shift", cp2, []),
            Op("tn-levels", "levels",
               {"model": {"type": "oscillator_tn", "n": 2}, "window": [[-2, 1], [-2, 1]]}, []),
            Op("cp2-levels", "levels", cp2, []),
        ]
        ops = _interleave(explicit, polygons, models)
        for j, op in enumerate(ops):
            op.flags = ["--format", "machine" if (j + cycle) % 2 else "human"] + op.flags
        for slot in (9, 19):
            mutation = catalogue[malformed % len(catalogue)]
            malformed += 1
            command, doc, text = mutation()
            ops.insert(slot, Op(f"malformed-{mutation.__name__}", command, doc, [],
                                malformed=True, missing=doc is None and text is None, text=text))
        yield ops


# ------------------------------------------------------------------- branch

BRANCH_CYCLE = [
    ("rotation", "callable", 1000),
    ("rotation", "list", 10000),
    ("unitary", "callable", 10000),
    ("unitary", "list", 1000),
    ("rotation", "callable", 10000),
    ("unitary", "callable", 1000),
    ("coarse", "callable", 1000),
    ("rotation", "list", 1000),
]


def branch_ops(seed: int):
    """In-process track_sqrt on 2n x 2n paths (n <= 6): weight rotations,
    exp(itH) for random Hermitian H, sample lists and callables, and paths
    too coarse to track, which must raise StepTooCoarseError."""
    rng = random.Random(f"branch:{seed}")
    for cycle in itertools.count():
        ops = []
        for i, (path, form, steps) in enumerate(BRANCH_CYCLE):
            n = 1 + (i + cycle) % 6
            spec = {"path": path, "form": form, "steps": steps, "n": n, "coarse": False}
            if path == "coarse":
                # the determinant turns by 0.75 to 2 radians per step
                spec.update(path="rotation", coarse=True,
                            weights=[120] + [rng.randint(25, 40) for _ in range(n - 1)])
            elif path == "rotation":
                spec["weights"] = [rng.randint(-4, 4) for _ in range(n)]
            else:
                spec["h_seed"] = rng.randrange(2 ** 32)
            ops.append(Op(f"{'coarse' if spec['coarse'] else path}-{form}-{steps}", "track",
                          spec=spec))
        yield ops


WORKLOADS = {
    "lattice": lattice_ops,
    "holonomy": holonomy_ops,
    "verdicts": verdicts_ops,
    "branch": branch_ops,
}


def build_path(spec: dict):
    """The path argument of one branch operation: a callable on [0, 1] or
    its steps + 1 samples.  Sets spec["trace"] = tr(H) for unitary paths.

    Matrices act on (q, p) with z = q + ip, so a unitary u = X + iY is the
    real block matrix [[X, -Y], [Y, X]]."""
    import numpy as np

    n = spec["n"]

    def embed(u):
        return np.block([[u.real, -u.imag], [u.imag, u.real]])

    if spec["path"] == "rotation":
        w = 2.0 * np.pi * np.asarray(spec["weights"], float)

        def path(t):
            return embed(np.diag(np.exp(1j * t * w)))
    else:
        g = np.random.default_rng(spec["h_seed"])
        a = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
        energies, vecs = np.linalg.eigh((a + a.conj().T) / 4)
        spec["trace"] = float(energies.sum())

        def path(t):
            return embed((vecs * np.exp(1j * t * energies)) @ vecs.conj().T)
    if spec["form"] == "list":
        steps = spec["steps"]
        return [path(i / steps) for i in range(steps + 1)]
    return path
