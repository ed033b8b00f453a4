"""Regenerate the committed benchmark fixtures under perfbench/fixtures/.

    PYTHONPATH=src python3 perfbench/make_fixtures.py

The solids are omnitruncations built here from coordinates of the
Platonic solids, prisms and antiprisms; the 15 catalog primes come from
`build_catalog(20)`.  Pinned invariants are evaluated once, at generation
time, and stored in fixtures/pinned.json; a benchmark run only compares
against them.

Reduction order follows dart labels, so the labelling is part of the
input.  Every committed solid is in breadth-first dart order from dart 0
of the flag labelling (surgery.bfs_relabel).  It evaluates the 120-vertex
solid in about 9 s, where the flag order itself takes 36 s and uniformly
random labellings more than 40 s (2-vCPU Xeon VM, Python 3.11).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import surgery

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

# solids that a run relabels with its own seed
SEEDED_SOLIDS = ("omni_prism5", "omni_prism6", "omni_antiprism4", "omni_antiprism5")


def _edges_at_min_distance(points):
    dist = {}
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dist[(i, j)] = math.dist(points[i], points[j])
    shortest = min(dist.values())
    return [e for e, x in dist.items() if x < shortest * 1.001]


def platonic(name):
    phi = (1 + math.sqrt(5)) / 2
    if name == "tetrahedron":
        pts = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    elif name == "cube":
        pts = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    elif name == "dodecahedron":
        pts = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        for a in (-1, 1):
            for b in (-1, 1):
                pts += [(0, a / phi, b * phi), (a / phi, b * phi, 0), (a * phi, 0, b / phi)]
    else:
        raise ValueError(name)
    return pts, _edges_at_min_distance(pts)


def prism(n, anti=False):
    pts = []
    for i in range(n):
        a = 2 * math.pi * i / n
        pts.append((math.cos(a), math.sin(a), 0.5))
    for i in range(n):
        a = 2 * math.pi * (i + (0.5 if anti else 0)) / n
        pts.append((math.cos(a), math.sin(a), -0.5))
    edge_list = []
    for i in range(n):
        edge_list += [(i, (i + 1) % n), (n + i, n + (i + 1) % n), (i, n + i)]
        if anti:
            edge_list.append((i, n + (i - 1) % n))
    return pts, edge_list


def solid_maps():
    """name -> (sigma, theta) of each omnitruncated solid in flag order."""
    sources = {
        "omni_tetrahedron": platonic("tetrahedron"),
        "omni_cube": platonic("cube"),
        "omni_dodecahedron": platonic("dodecahedron"),
        "omni_prism5": prism(5),
        "omni_prism6": prism(6),
        "omni_antiprism4": prism(4, anti=True),
        "omni_antiprism5": prism(5, anti=True),
    }
    out = {}
    for name, (pts, edge_list) in sources.items():
        base = surgery.from_rotations(surgery.rotations_from_coordinates(pts, edge_list))
        out[name] = surgery.omnitruncate(*base)
    return out


def main():
    from sl3webs.enumerator import build_catalog
    from sl3webs.planarmap import parse_web, serialize_web
    from sl3webs.reducer import invariant

    os.makedirs(FIXTURES, exist_ok=True)
    pinned = {"primes": {}, "solids": {}}
    for entry in build_catalog(20):
        with open(os.path.join(FIXTURES, f"prime_{entry.name}.dart"), "w") as fh:
            fh.write(serialize_web(entry.web, "dart"))
        pinned["primes"][entry.name] = {
            "vertices": entry.vertex_count,
            "invariant": entry.invariant.to_json_obj(),
        }
    for name, (sigma, theta) in solid_maps().items():
        sigma, theta = surgery.bfs_relabel(sigma, theta)
        text = surgery.dart_text(sigma, theta)
        web = parse_web(text)
        t0 = time.perf_counter()
        value = invariant(web)
        dt = time.perf_counter() - t0
        print(f"{name}: {web.n_vertices} vertices, P(1) = {value.eval_at_one()}, {dt:.1f} s", file=sys.stderr)
        with open(os.path.join(FIXTURES, f"{name}.dart"), "w") as fh:
            fh.write(text)
        pinned["solids"][name] = {
            "vertices": web.n_vertices,
            "labelling": "bfs_relabel from dart 0 of the flag order",
            "relabelled_per_run": name in SEEDED_SOLIDS,
            "value_at_one": value.eval_at_one(),
            "invariant": value.to_json_obj(),
        }
    with open(os.path.join(FIXTURES, "pinned.json"), "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
