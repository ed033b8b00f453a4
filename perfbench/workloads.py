"""The benchmark workloads: seeded inputs, CLI operations, output checks.

Every check compares against references that do not come from the code
under test: pinned values in fixtures/pinned.json, the paper's census
figures, or arithmetic done here (products of pinned prime invariants,
powers of a root witness in the quotient ring).
"""

from __future__ import annotations

import json
import os
import random

import surgery

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

WORKLOADS = ("census", "sums", "solids", "roots")
# timed phase of one pass, in seconds, on the 2-vCPU Xeon VM the baseline
# was taken on; a run makes round(--seconds / this) passes, at least one,
# so how many passes it makes never depends on how fast the host was
NOMINAL_PASS_S = {"census": 18.0, "sums": 14.0, "solids": 9.0, "roots": 30.0}
# workloads whose time goes to the interpreter, like the calibration
# kernel's (worker.py), and whose times are scaled by it; roots spends its
# time in numpy's vectorised loops, whose speed does not follow the
# kernel's, and reports the times as measured
SCALED = ("census", "sums", "solids")

ROOT_EXPR = "[2]^4[3]+2[2]^2[3]"
SOLIDS = (
    "omni_tetrahedron",
    "omni_cube",
    "omni_prism5",
    "omni_antiprism4",
    "omni_prism6",
    "omni_antiprism5",
    "omni_dodecahedron",
)
SMOKE_SOLIDS = ("omni_tetrahedron", "omni_prism5")


class Op:
    """One CLI call and the check of its stdout (None when correct)."""

    __slots__ = ("argv", "check")

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check


def load_pinned():
    with open(os.path.join(FIXTURES, "pinned.json")) as fh:
        return json.load(fh)


def _fixture_map(name):
    with open(os.path.join(FIXTURES, f"{name}.dart")) as fh:
        return surgery.parse_dart(fh.read())


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# -- reference arithmetic on {half-exponent: coefficient} dicts ---------------

Q2 = {1: 1, -1: 1}
Q3 = {2: 1, 0: 1, -2: 1}


def poly_from_json(obj):
    return {int(k): int(c) for k, c in obj.items() if int(c)}


def poly_add(a, b, scale=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


def poly_mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def poly_pow(a, n):
    out = {0: 1}
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def residue(p, d):
    """Representative of p in Z[q^(±1/2)]/(d, [3]^d - [3]): coefficients
    mod d on half-exponents -2d..2d-1 (the generator's extreme terms
    q^(±d) have coefficient 1, so top and bottom terms eliminate)."""
    gen = poly_add(poly_pow(Q3, d), Q3, -1)
    work = {k: c % d for k, c in p.items() if c % d}
    while True:
        high = [k for k in work if k >= 2 * d]
        low = [k for k in work if k < -2 * d]
        if not high and not low:
            return work
        k = max(high) if high else min(low)
        shift = k - 2 * d if high else k + 2 * d
        c = work[k]
        for g, gc in gen.items():
            work[g + shift] = (work.get(g + shift, 0) - c * gc) % d
        work = {e: c for e, c in work.items() if c}


ROOT_TARGET = poly_add(poly_mul(poly_pow(Q2, 4), Q3), poly_mul(poly_pow(Q2, 2), Q3), 2)


# -- workloads ----------------------------------------------------------------


def census_ops(smoke):
    """The paper's census: the 22-vertex prime count and the table check."""
    if smoke:
        n, n_max, count = 12, 14, 1
        hist = {"8": 1, "10": 0, "12": 1, "14": 1}
        summary = {"structural_matches": 3, "exact_invariants": 3, "suspect_reported": 0}
    else:
        n, n_max, count = 22, 20, 8
        hist = {"8": 1, "10": 0, "12": 1, "14": 1, "16": 2, "18": 2, "20": 8}
        summary = {"structural_matches": 15, "exact_invariants": 12, "suspect_reported": 3}

    def check_count(out):
        got = json.loads(out)
        return None if got == count else f"count {got}, expected {count}"

    def check_report(out):
        obj = json.loads(out)
        if obj["size_histogram"] != hist:
            return f"size histogram {obj['size_histogram']}"
        got = {k: obj["summary"][k] for k in summary}
        return None if got == summary else f"summary {got}"

    return [
        Op(["enumerate", "--vertices", str(n), "--count"], check_count),
        Op(["verify-paper", "--max-vertices", str(n_max)], check_report),
    ]


def sums_ops(seed, workdir, pinned, smoke):
    """Connected sums of 2-4 catalog primes, one decompose call each.

    Which primes are summed together is a fixed, stratified design: the
    summand counts 2, 3 and 4 occur equally often and every prime fills
    the same number of slots.  The seed orders the sums and their
    summands and picks the edges they are joined at, so the inputs change
    with the seed while the work, and the spread of per-op latencies,
    does not swing with how many large sums a seed happens to draw.
    """
    primes = pinned["primes"]
    names = sorted(n for n in primes if not smoke or primes[n]["vertices"] <= 12)
    maps = {n: _fixture_map(f"prime_{n}") for n in names}
    count, k_values = (3, (2,)) if smoke else (100, (2, 3, 4))
    design = random.Random("sums-design")
    slots = [names[i % len(names)] for i in range(sum(k_values[i % len(k_values)] for i in range(count)))]
    design.shuffle(slots)
    combos = []
    for i in range(count):
        k = k_values[i % len(k_values)]
        combos.append(slots[:k])
        slots = slots[k:]
    rng = random.Random(f"sums:{seed}")
    rng.shuffle(combos)
    ops = []
    for i, parts in enumerate(combos):
        rng.shuffle(parts)
        web = maps[parts[0]]
        expected = poly_from_json(primes[parts[0]]["invariant"])
        for name in parts[1:]:
            other = maps[name]
            web = surgery.connected_sum(
                web, rng.choice(surgery.edges(web[1])), other, rng.choice(surgery.edges(other[1]))
            )
            expected = poly_mul(expected, poly_from_json(primes[name]["invariant"]))
        path = _write(workdir, f"sum{i:03d}.dart", surgery.dart_text(*web))
        ops.append(Op(["decompose", path], _sum_check(len(parts), expected)))
    return ops


def _sum_check(k, expected):
    def check(out):
        obj = json.loads(out)
        if obj["identity_holds"] is not True:
            return "product identity does not hold"
        if obj["k"] != k or obj["l"] != 0:
            return f"k={obj['k']} l={obj['l']}, expected k={k} l=0"
        if poly_from_json(obj["identity_lhs"]) != expected:
            return "identity_lhs differs from the product of the pinned prime invariants"
        return None

    return check


def solids_ops(seed, workdir, pinned, smoke):
    """Large 3-connected webs, each once.  The prisms and antiprisms get a
    seeded relabelling that permutes the three labels at every vertex: the
    least dart of each face, and so the reduction order, changes with the
    seed, while labels keep the locality of the committed order (uniformly
    random labellings spread one web's time threefold between seeds)."""
    rng = random.Random(f"solids:{seed}")
    ops = []
    for name in SMOKE_SOLIDS if smoke else SOLIDS:
        ref = pinned["solids"][name]
        sigma, theta = _fixture_map(name)
        if ref["relabelled_per_run"]:
            sigma, theta = surgery.shuffle_within_vertices(sigma, theta, rng)
        path = _write(workdir, f"{name}.dart", surgery.dart_text(sigma, theta))
        ops.append(Op(["invariant", path], _solid_check(ref)))
    return ops


def _solid_check(ref):
    expected = poly_from_json(ref["invariant"])

    def check(out):
        obj = json.loads(out)
        if obj["value_at_one"] != ref["value_at_one"]:
            return f"P(1) = {obj['value_at_one']}, expected {ref['value_at_one']}"
        if poly_from_json(obj["invariant"]) != expected:
            return "invariant differs from the pinned polynomial"
        return None

    return check


def roots_ops(smoke):
    """d-th roots of P(12-vertex prime): found at d = 2, 3; not_found at 6.
    The found searches take about 0.2 s each.  They are issued twice
    before the 30 s search at d = 6 and twice after it, so op_p50_s is the
    middle of eight short ops that no single second of host slowness
    covers."""
    orders = (2, 3) if smoke else (2, 3) * 2 + (6,) + (2, 3) * 2
    return [
        Op(["symmetry-root", "--expr", ROOT_EXPR, str(d)], _root_check(d)) for d in orders
    ]


def _root_check(d):
    def check(out):
        obj = json.loads(out)
        if d == 6:
            if obj["outcome"] != "not_found" or obj["searched"] != 1 << 24:
                return f"{obj['outcome']} after {obj['searched']} candidates"
            return None if "mod-2" in obj["detail"] else f"detail {obj['detail']!r}"
        if obj["outcome"] != "found":
            return f"outcome {obj['outcome']}"
        power = poly_pow(poly_from_json(obj["witness"]), d)
        return None if residue(power, d) == residue(ROOT_TARGET, d) else "witness^d != target"

    return check


def prepare(workload, seed, workdir, smoke=False):
    if workload == "census":
        return census_ops(smoke)
    if workload == "sums":
        return sums_ops(seed, workdir, load_pinned(), smoke)
    if workload == "solids":
        return solids_ops(seed, workdir, load_pinned(), smoke)
    if workload == "roots":
        return roots_ops(smoke)
    raise ValueError(f"unknown workload {workload!r}")
