"""Independent oracles for every benchmark operation.

Nothing here imports mpcquant.  Each oracle derives the expected answer from
the input document alone, with `fractions` for the exact questions and
closed forms for the numeric ones:

* CP^2 levels: the count is (N+1)(N+2)/2, and every level maps back through
  the inverse weight basis into the open standard simplex scaled by K/hbar;
* oscillator levels: the energy is E/hbar = (vertex sum) - sum(x), which is
  n/2 - x for the shifted diagonal circle;
* holonomy: one row per interior half-integer level and unit direction, the
  numeric value within 1e-9 of exp(-2*pi*i*<x, xi>), `trivial` exactly when
  <x, xi> is an integer;
* check / shift: the defects frac(momentum - half_sum);
* track_sqrt: mu(1) = (-1)^sum(w) on weight rotations, and exp(-i*tr(H)/2) on
  z -> exp(itH) z, since det_c = det exp(itH) = exp(it*tr(H)) and mu(t) is
  the continuous branch of det_c^(-1/2) with mu(0) = 1;
* every CLI call: the expected exit code, exactly one `error:` line on
  stderr for exit 2, none otherwise, and never a traceback.

`check_cli` and `check_branch` return a list of problems; an empty list
means the operation passed.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import re
from fractions import Fraction

HOLONOMY_TOL = 1e-9
MU_TOL = 1e-8


# --------------------------------------------------------------- exact data

def rat(value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"not an exact rational: {value!r}")
    return Fraction(value) if isinstance(value, int) else Fraction(str(value).strip())


def frac(v):
    return tuple(a - math.floor(a) for a in v)


def show(v) -> str:
    return "(" + ", ".join(str(a) for a in v) + ")" if v is not None else "none"


def _identity(k):
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def fixed_points(doc: dict) -> list:
    """(name, weights, momentum) for every fixed point the document
    describes, rebuilt from the model formulas or read from explicit data."""
    if "explicit" in doc:
        ex = doc["explicit"]
        return [
            (
                fp.get("name", f"z{i}"),
                [tuple(w) for w in fp.get("weights", [])],
                tuple(rat(m) for m in fp["momentum"]),
            )
            for i, fp in enumerate(ex["fixed_points"])
        ]
    m = doc["model"]
    n = m["n"]
    if m["type"] == "oscillator_t1":
        v = Fraction(n, 2) if m.get("shifted", True) else Fraction(0)
        return [("origin", [(1,)] * n, (v,))]
    if m["type"] == "oscillator_tn":
        return [("origin", list(_identity(n)), (Fraction(1, 2),) * n)]
    basis = [tuple(w) for w in m.get("weight_basis") or _identity(n)]
    const = tuple(rat(c) for c in m.get("constant") or [0] * n)
    lam = m["N"] + Fraction(n + 1, 2)
    ks = [(0,) * n] + basis
    out = []
    for j in range(n + 1):
        weights = [
            tuple(ks[i][a] - ks[j][a] for a in range(n)) for i in range(n + 1) if i != j
        ]
        mom = tuple(const[a] - lam * ks[j][a] for a in range(n))
        out.append((f"Z{j}", weights, mom))
    return out


def half_sum(weights, k) -> tuple:
    return tuple(Fraction(sum(w[a] for w in weights), 2) for a in range(k))


def defects(doc: dict) -> list:
    """frac(momentum - half_sum) at every fixed point."""
    out = []
    for name, weights, mom in fixed_points(doc):
        hs = half_sum(weights, len(mom))
        out.append((name, hs, frac(tuple(a - b for a, b in zip(mom, hs)))))
    return out


def _equivariant(doc: dict) -> bool:
    return all(all(e == 0 for e in d) for _, _, d in defects(doc))


def demanded_shifts(doc: dict) -> list:
    out = []
    for _, weights, mom in fixed_points(doc):
        hs = half_sum(weights, len(mom))
        out.append(frac(tuple(b - a for a, b in zip(mom, hs))))
    return out


# ------------------------------------------------------------ exact geometry

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points) -> list:
    """Andrew's monotone chain; counter-clockwise vertices, no collinear
    points.  Returns fewer than 3 vertices for a degenerate set."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


class Region:
    """Strict-interior test and integer bounding box of a momentum image."""

    def __init__(self, inside, box=None, vertices=None):
        self.inside = inside
        self.box = box
        self.vertices = vertices


def region_of(doc: dict) -> Region:
    """The open momentum image the document describes, built without the
    program's hull code."""
    if "model" in doc:
        if doc["model"]["type"] == "projective":
            return _cp2_region(doc["model"])
        v = fixed_points(doc)[0][2]
        return Region(lambda x: all(a < b for a, b in zip(x, v)), vertices=[v])
    ex = doc["explicit"]
    poly = ex.get("polyhedron")
    if poly is not None and "halfspaces" in poly:
        hs = [
            (tuple(rat(e) for e in h["normal"]), rat(h["offset"]))
            for h in poly["halfspaces"]
        ]
        return Region(
            lambda x: all(sum(a * b for a, b in zip(n, x)) < o for n, o in hs)
        )
    if poly is not None:
        pts = [tuple(rat(e) for e in v) for v in poly["vertices"]]
    else:
        pts = [mom for _, _, mom in fixed_points(doc)]
    return _hull_region(pts, ex["rank"])


def _hull_region(pts, rank) -> Region:
    lo = [min(p[a] for p in pts) for a in range(rank)]
    hi = [max(p[a] for p in pts) for a in range(rank)]
    box = [(math.ceil(a), math.floor(b)) for a, b in zip(lo, hi)]
    if rank == 1:
        a, b = lo[0], hi[0]
        verts = sorted({(a,), (b,)})
        return Region(lambda x: a < x[0] < b, box=box, vertices=verts)
    hull = convex_hull_2d(pts)
    if len(hull) < 3:
        return Region(lambda x: False, box=box, vertices=None)
    edges = list(zip(hull, hull[1:] + hull[:1]))
    return Region(
        lambda x: all(_cross(p, q, x) > 0 for p, q in edges),
        box=box,
        vertices=sorted(hull),
    )


def _inverse_2x2(b):
    (a, c), (d, e) = b
    det = a * e - c * d
    return ((e * det, -c * det), (-d * det, a * det))  # det is +-1


def _cp2_region(m) -> Region:
    """Open simplex C - lam * s.K, s in the open standard simplex: a level x
    is interior iff u = 2 (C - x) K^-1 has positive entries with sum below
    2 lam (all integers, since 2C and 2 lam are)."""
    basis = [tuple(w) for w in m.get("weight_basis") or _identity(2)]
    c2 = tuple(2 * rat(e) for e in m.get("constant") or [0, 0])
    lam2 = 2 * m["N"] + 3
    inv = _inverse_2x2(basis)

    def inside(x):
        d = (c2[0] - 2 * x[0], c2[1] - 2 * x[1])
        u0 = d[0] * inv[0][0] + d[1] * inv[1][0]
        u1 = d[0] * inv[0][1] + d[1] * inv[1][1]
        return u0 > 0 and u1 > 0 and u0 + u1 < lam2

    verts = [
        tuple(c2[a] / 2 - Fraction(lam2, 2) * k[a] for a in range(2))
        for k in [(0, 0)] + basis
    ]
    lo = [min(v[a] for v in verts) for a in range(2)]
    hi = [max(v[a] for v in verts) for a in range(2)]
    box = [(math.ceil(a), math.floor(b)) for a, b in zip(lo, hi)]
    return Region(inside, box=box, vertices=sorted(verts))


def parse_window(text: str):
    return [tuple(int(v) for v in part.split(",")) for part in text.split("x")]


def effective_window(doc: dict, flags: list):
    if "--window" in flags:
        return parse_window(flags[flags.index("--window") + 1])
    if doc.get("window") is not None:
        return [tuple(a) for a in doc["window"]]
    return None


def expected_levels(doc: dict, flags: list) -> list:
    region = region_of(doc)
    window = effective_window(doc, flags)
    ranges = region.box
    if window is not None:
        ranges = window if ranges is None else [
            (max(a, c), min(b, d)) for (a, b), (c, d) in zip(ranges, window)
        ]
    axes = [range(lo, hi + 1) for lo, hi in ranges]
    return [list(p) for p in itertools.product(*axes) if region.inside(p)]


def cp2_level_count(m) -> int:
    big_n = m["N"]
    return (big_n + 1) * (big_n + 2) // 2


# --------------------------------------------------------- output parsing

TUPLE = re.compile(r"\(([^()]*)\)")


def _tuple_of(text: str) -> tuple:
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    return tuple(Fraction(e.strip()) for e in inner.split(",") if e.strip())


def parse_human(text: str) -> dict:
    """The fields of a human report that the oracles check."""
    out: dict = {"levels": None, "energies": [], "reductions": [], "points": []}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("equivariant: "):
            out["overall"] = line.endswith("yes")
            i += 2  # skip the table header
            while i < len(lines) and TUPLE.search(lines[i]) and ":" not in lines[i]:
                cells = TUPLE.findall(lines[i])
                name = lines[i].split()[0]
                out["points"].append((name, _tuple_of(cells[0]), _tuple_of(cells[1])))
                i += 1
            continue
        if line.startswith("suggested shift: "):
            out["suggested_shift"] = _tuple_of(line.split(": ", 1)[1])
        elif line.startswith("shift: "):
            out["shift"] = _tuple_of(line.split(": ", 1)[1])
        elif line.startswith("error: "):
            out["error"] = line[len("error: "):]
        elif line.startswith("quantized levels ("):
            out["levels"] = []
            i += 1
            while i < len(lines) and lines[i].startswith("  ("):
                cell, _, energy = lines[i].partition("E/hbar = ")
                out["levels"].append([int(e) for e in _tuple_of(cell)])
                if energy:
                    out["energies"].append(Fraction(energy.strip()))
                i += 1
            continue
        elif line.startswith("count: "):
            out["count"] = int(line.split(": ", 1)[1])
        elif line.startswith("  level (") and "reduced dim" in line:
            k = re.search(r"K/hbar = ([^,\s]+)", line)
            out["reductions"].append(Fraction(k.group(1)) if k else None)
        i += 1
    return out


# ------------------------------------------------------------- CLI oracle

def _contract(expected_rc: int, rc: int, stderr: str) -> list:
    problems = []
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if rc != expected_rc:
        problems.append(f"exit {rc}, expected {expected_rc}")
    n_err = sum(1 for line in stderr.splitlines() if line.startswith("error:"))
    want = 1 if expected_rc == 2 else 0
    if n_err != want:
        problems.append(f"{n_err} 'error:' lines on stderr, expected {want}")
    return problems


def _report(stdout: str, machine: bool):
    return json.loads(stdout) if machine else parse_human(stdout)


def _as_fracs(values) -> tuple:
    return tuple(Fraction(v) for v in values)


def _check_verdict(doc, rep, machine, problems):
    want = defects(doc)
    overall = _equivariant(doc)
    if machine:
        eq = rep.get("equivariance", {})
        got_overall = eq.get("overall")
        got = [
            (p["name"], _as_fracs(p["half_sum"]), _as_fracs(p["defect"]))
            for p in eq.get("points", [])
        ]
        got_shift = eq.get("suggested_shift")
        got_shift = _as_fracs(got_shift) if got_shift is not None else None
    else:
        got_overall = rep.get("overall")
        got = rep["points"]
        got_shift = rep.get("suggested_shift")
    if got_overall != overall:
        problems.append(f"verdict {got_overall}, oracle says {overall}")
    if [(n, tuple(h), tuple(d)) for n, h, d in want] != [
        (n, tuple(h), tuple(d)) for n, h, d in got
    ]:
        problems.append("defect table differs from frac(momentum - half_sum)")
    shifts = set(demanded_shifts(doc))
    want_shift = next(iter(shifts)) if not overall and len(shifts) == 1 else None
    if got_shift != want_shift:
        problems.append(f"suggested shift {show(got_shift)}, oracle says {show(want_shift)}")
    return 0 if overall else 1


def _check_shift(doc, rep, machine, problems):
    shifts = demanded_shifts(doc)
    if len(set(shifts)) != 1:
        if not rep.get("error"):
            problems.append("inconsistent defects reported without an error")
        return 1
    got = rep.get("shift")
    got = _as_fracs(got) if machine and got is not None else got
    if got != shifts[0]:
        problems.append(f"shift {show(got)}, oracle says {show(shifts[0])}")
    return 0


def _oscillator_kind(doc):
    m = doc.get("model")
    return m["type"] if m and m["type"].startswith("oscillator") else None


def _cp2_levels_ok(m, got, problems):
    """Levels of an equivariant CP^2 without enumerating its box: the list
    must hold (N+1)(N+2)/2 distinct points in lexicographic order, each
    interior by the inverse-basis test."""
    count = cp2_level_count(m)
    if got is None or len(got) != count:
        problems.append(f"{'no' if got is None else len(got)} levels, (N+1)(N+2)/2 = {count}")
        return
    inside = _cp2_region(m).inside
    if any(a >= b for a, b in zip(got, got[1:])):
        problems.append("levels are not distinct and in lexicographic order")
    elif not all(len(p) == 2 and inside(p) for p in got):
        problems.append("a listed level maps outside the open simplex")


def _check_levels(doc, flags, rep, machine, problems, command):
    got = rep.get("levels")
    m = doc.get("model")
    if m and m["type"] == "projective" and _equivariant(doc) and effective_window(doc, flags) is None:
        _cp2_levels_ok(m, got, problems)
        want = got if not problems else expected_levels(doc, flags)
    else:
        want = expected_levels(doc, flags)
        if got != want:
            size = "none" if got is None else len(got)
            problems.append(f"level list differs from the oracle ({size} vs {len(want)})")
    if rep.get("count") != len(want):
        problems.append(f"count {rep.get('count')}, oracle says {len(want)}")
    if command == "render":
        return 0
    osc = _oscillator_kind(doc)
    if osc is not None:
        vertex_sum = sum(fixed_points(doc)[0][2])
        energies = [vertex_sum - sum(p) for p in want]
        got_e = rep.get("energies")
        got_e = [Fraction(e) for e in got_e] if machine and got_e is not None else got_e
        if got_e != energies:
            problems.append("energies differ from E/hbar = n/2 - x")
    _check_reductions(doc, want, rep, machine, problems)
    if machine:
        _check_vertices(doc, rep, problems)
    return 0


def _check_reductions(doc, want, rep, machine, problems):
    free = "model" in doc or doc["explicit"].get("flags", {}).get(
        "action_free_on_regular_levels", False)
    expect_rows = free and _equivariant(doc)
    osc = _oscillator_kind(doc)
    n = doc["model"]["n"] if "model" in doc else None
    t1 = osc == "oscillator_t1" and n >= 2
    if machine:
        rows = rep.get("reductions")
        if not expect_rows:
            if rows:
                problems.append("reductions reported for a system that has none")
            return
        if rows is None or [r["level"] for r in rows] != want:
            problems.append("reduction rows do not match the levels")
            return
        dim, rank = _dims(doc)
        for r, x in zip(rows, want):
            k = Fraction(n, 2) - x[0] if t1 else None
            if r["reduced_dim"] != 2 * (dim - rank) or r["prequantizable"] is not True:
                problems.append(f"reduction at {x} has the wrong dimension")
                return
            if (Fraction(r["k_over_hbar"]) if r["k_over_hbar"] else None) != k:
                problems.append(f"reduction at {x}: K/hbar {r['k_over_hbar']}, oracle {k}")
                return
            if r["successor_equivariant"] is not (True if t1 else None):
                problems.append(f"reduction at {x}: successor verdict wrong")
                return
    else:
        rows = rep["reductions"]
        if len(rows) != (len(want) if expect_rows else 0):
            problems.append("reduction lines do not match the levels")
            return
        if t1 and rows != [Fraction(n, 2) - x[0] for x in want]:
            problems.append("reduction K/hbar differs from N + n/2")


def _dims(doc):
    if "explicit" in doc:
        return doc["explicit"]["dim"], doc["explicit"]["rank"]
    m = doc["model"]
    return m["n"], (1 if m["type"] == "oscillator_t1" else m["n"])


def _check_vertices(doc, rep, problems):
    if "explicit" in doc and doc["explicit"].get("polyhedron") is not None:
        return
    if _dims(doc)[1] > 2:
        return
    verts = region_of(doc).vertices
    if verts is None:
        return
    got = sorted(_as_fracs(v) for v in rep.get("polyhedron", {}).get("vertices", []))
    if got != sorted(tuple(v) for v in verts):
        problems.append("polyhedron vertices differ from the oracle hull")


LEVEL_MARK = 'r="6" fill="#d62728"'


def _check_svg(doc, svg: bytes, n_levels: int, problems):
    if svg is None:
        problems.append("no SVG written")
        return
    text = svg.decode("utf-8", "replace")
    if not text.startswith("<svg") or not text.endswith("</svg>\n"):
        problems.append("SVG is not a complete document")
    if text.count(LEVEL_MARK) != n_levels:
        problems.append(f"SVG marks {text.count(LEVEL_MARK)} levels, oracle says {n_levels}")
    for name, _, _ in fixed_points(doc):
        if f">{name}</text>" not in text:
            problems.append(f"SVG lacks the label of fixed point {name}")


def _check_holonomy(doc, flags, rep, problems):
    if not _equivariant(doc):
        if not rep.get("error") or rep.get("equivariance", {}).get("overall") is not False:
            problems.append("unshifted model not reported as a no verdict")
        return 1
    region = region_of(doc)
    window = effective_window(doc, flags)
    k = len(window)
    axes = [[Fraction(m, 2) for m in range(2 * lo, 2 * hi + 1)] for lo, hi in window]
    rows = rep.get("holonomy") or []
    expected = [
        (x, a) for x in itertools.product(*axes) if region.inside(x) for a in range(k)
    ]
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} holonomy rows, oracle says {len(expected)}")
        return 0
    for row, (x, a) in zip(rows, expected):
        xi = [1 if b == a else 0 for b in range(k)]
        t = x[a] - math.floor(x[a])
        closed = cmath.exp(-2j * math.pi * float(t))
        numeric = complex(*row["numeric"])
        if _as_fracs(row["level"]) != x or row["xi"] != xi:
            problems.append("holonomy row for the wrong level or direction")
            return 0
        if abs(numeric - closed) > HOLONOMY_TOL:
            problems.append(
                f"holonomy at {show(x)} misses exp(-2 pi i <x, xi>) by {abs(numeric - closed):.2e}"
            )
            return 0
        if row["trivial"] is not (t == 0):
            problems.append(f"holonomy at {show(x)}: trivial={row['trivial']}")
            return 0
    return 0


def check_cli(op, rc: int, stdout: str, stderr: str, svg=None) -> list:
    """Problems with one CLI operation's outcome; empty when it passed."""
    if op.malformed:
        return _contract(2, rc, stderr)
    machine = "--format" in op.flags and op.flags[op.flags.index("--format") + 1] == "machine"
    problems = []
    try:
        rep = _report(stdout, machine) if rc in (0, 1) else {}
        if op.command == "check":
            want_rc = _check_verdict(op.doc, rep, machine, problems)
        elif op.command == "shift":
            want_rc = _check_shift(op.doc, rep, machine, problems)
        elif op.command in ("levels", "render"):
            want_rc = _check_levels(op.doc, op.flags, rep, machine, problems, op.command)
            if op.command == "render":
                _check_svg(op.doc, svg, rep.get("count"), problems)
        elif op.command == "holonomy":
            want_rc = _check_holonomy(op.doc, op.flags, rep, problems)
        else:
            raise ValueError(f"no oracle for {op.command!r}")
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        problems.append(f"output not readable: {type(exc).__name__}: {exc}")
        want_rc = 0
    return _contract(want_rc, rc, stderr) + problems


# ----------------------------------------------------------- branch oracle

def expected_mu(spec: dict):
    """mu(1) along the path, or None when the path must be rejected."""
    if spec["coarse"]:
        return None
    if spec["path"] == "rotation":
        return complex((-1) ** (sum(spec["weights"]) % 2))
    return cmath.exp(-0.5j * spec["trace"])


def check_branch(spec: dict, mu, error_name) -> list:
    want = expected_mu(spec)
    if want is None:
        if error_name != "StepTooCoarseError":
            return [f"coarse path not rejected (got {error_name or mu})"]
        return []
    if error_name is not None:
        return [f"track_sqrt raised {error_name}"]
    if abs(mu - want) > MU_TOL:
        return [f"mu(1) = {mu:.6g}, oracle says {want:.6g}"]
    return []
