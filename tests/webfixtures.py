"""Hand-built rotation systems and the benchmark's fixture webs, shared
across the test modules."""

import pathlib

from sl3webs.planarmap import CombMap, from_rotations, parse_web, validate

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def fixture_web(name):
    return parse_web((FIXTURES / f"{name}.dart").read_text())


def cube_web():
    """The 8-vertex cube, genus-0 rotations (6 quadrilateral faces)."""
    rot = [
        [1, 7, 3],
        [2, 6, 0],
        [3, 5, 1],
        [0, 4, 2],
        [5, 3, 7],
        [6, 2, 4],
        [7, 1, 5],
        [4, 0, 6],
    ]
    return validate(from_rotations(rot))


def theta_map():
    """Two vertices joined by three parallel edges (3 bigon faces)."""
    sigma = [2, 5, 4, 1, 0, 3]
    theta = [1, 0, 3, 2, 5, 4]
    return CombMap(sigma, theta)


def theta_web():
    return validate(theta_map())


def digon_prism_web():
    """4-cycle with two opposite edges doubled; invariant [3][2]^2.

    Vertices 0-1-2-3 in a square, extra parallel edges 0-1 (bulging
    outward below) and 2-3 (outward above); faces 2+2+4+4.
    """
    # darts: v0:0,1,2  v1:3,4,5  v2:6,7,8  v3:9,10,11
    # square edges: 0-3 (v0->v1), 4-6 (v1->v2), 7-9 (v2->v3), 10-1 (v3->v0)
    # doubled edges: 2-5 (v0-v1 extra), 8-11 (v2-v3 extra)
    sigma = [1, 2, 0, 5, 3, 4, 8, 6, 7, 11, 9, 10]
    theta = [3, 10, 5, 0, 6, 2, 4, 9, 11, 7, 1, 8]
    return validate(CombMap(sigma, theta))


def triangle_prism_web_map():
    """3-prism: cubic, planar, but has triangle faces (not bipartite)."""
    rot = [
        [1, 2, 3],
        [2, 0, 4],
        [0, 1, 5],
        [5, 4, 0],
        [3, 5, 1],
        [4, 3, 2],
    ]
    return from_rotations(rot)


def k4_planar_map():
    """K4 with a genus-0 rotation system."""
    rot = [
        [1, 2, 3],
        [2, 0, 3],
        [0, 1, 3],
        [0, 2, 1],
    ]
    return from_rotations(rot)


def k4_twisted_map():
    """K4 with one vertex rotation reversed: genus 1."""
    rot = [
        [1, 2, 3],
        [2, 0, 3],
        [0, 1, 3],
        [1, 2, 0],
    ]
    return from_rotations(rot)


def hex_prism_web():
    """The 12-vertex hexagonal prism (two hexagons plus six rungs)."""
    rot = [[(v + 1) % 6, 6 + v, (v + 5) % 6] for v in range(6)]
    # outer hexagon winds the other way for genus 0
    rot += [[6 + (v + 5) % 6, v, 6 + (v + 1) % 6] for v in range(6)]
    return validate(from_rotations(rot))


def doubled_cycle_map():
    """Two vertices of degree 2 joined by two parallel edges (2 faces)."""
    sigma = [1, 0, 3, 2]
    theta = [2, 3, 0, 1]
    return CombMap(sigma, theta)


def digon_expand(web, edge_dart):
    """Replace an edge x-y by x-u1=u2-y with u1,u2 doubly joined.

    The output is a valid (non-simple) web two vertices bigger; contracting
    the new bigon undoes it.  Tries both rotation chiralities at u2 and
    returns the one that stays on the sphere.
    """
    from sl3webs.planarmap import MapError, validate

    cmap = web.map
    n = cmap.n_darts
    x_dart, y_dart = edge_dart, cmap.theta[edge_dart]
    p0, p1, p2, q0, q1, q2 = range(n, n + 6)
    last = None
    for u2_rot in ((q1, q2, q0), (q2, q0, q1)):
        sigma = list(cmap.sigma) + [p1, p2, p0] + list(u2_rot)
        theta = list(cmap.theta) + [x_dart, q1, q2, y_dart, p1, p2]
        theta[x_dart] = p0
        theta[y_dart] = q0
        try:
            return validate(CombMap(sigma, theta), web.circles)
        except MapError as exc:
            last = exc
    raise last


def simple_by_vertex_pairs(web):
    """Oracle for Web.is_simple: no edge joins a vertex to itself and no
    two edges join the same vertex pair, read off the edge list."""
    cmap = web.map
    seen = set()
    for d, t in cmap.edges():
        pair = tuple(sorted((cmap.vertex_of(d), cmap.vertex_of(t))))
        if pair[0] == pair[1] or pair in seen:
            return False
        seen.add(pair)
    return True
