"""Rotation-system surgery on DART text, independent of the sl3webs package.

A map is a pair of dart permutations: `theta` pairs each dart with the
other end of its edge, `sigma` is the counterclockwise successor around a
vertex; faces are the orbits of d -> sigma[theta[d]].  The benchmark builds
its inputs here (connected sums, dart relabellings, omnitruncations) so
that an input never depends on how the code under test labels its output.
"""

from __future__ import annotations

import math


def orbits(perm):
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d]
        out.append(cyc)
    return out


def is_sphere(sigma, theta):
    """Connected, cubic and genus 0 (V - E + F == 2)."""
    n = len(sigma)
    if any(len(v) != 3 for v in orbits(sigma)):
        return False
    seen = {0}
    stack = [0]
    while stack:
        d = stack.pop()
        for nb in (sigma[d], theta[d]):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != n:
        return False
    faces = orbits([sigma[theta[d]] for d in range(n)])
    return n // 3 - n // 2 + len(faces) == 2


def from_rotations(neighbors):
    """Darts from per-vertex counterclockwise neighbour lists (simple graphs)."""
    dart = {}
    sigma = []
    for v, nbs in enumerate(neighbors):
        base = len(sigma)
        for j, u in enumerate(nbs):
            dart[(v, u)] = base + j
            sigma.append(base + (j + 1) % len(nbs))
    theta = [dart[(u, v)] for (v, u) in sorted(dart, key=dart.get)]
    return sigma, theta


def parse_dart(text):
    """(sigma, theta) from DART text; trusts the committed or generated file."""
    sigma = theta = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, body = line.split(":", 1)
        nums = [int(tok) for tok in body.split()]
        if head == "darts":
            sigma = [None] * nums[0]
            theta = [None] * nums[0]
        elif head.startswith("v"):
            for j, d in enumerate(nums):
                sigma[d] = nums[(j + 1) % len(nums)]
        elif head == "e":
            a, b = nums
            theta[a], theta[b] = b, a
        else:
            raise ValueError(f"unexpected DART line {line!r}")
    return sigma, theta


def dart_text(sigma, theta):
    lines = [f"darts: {len(sigma)}"]
    for i, orbit in enumerate(orbits(sigma), 1):
        lines.append(f"v {i}: {' '.join(map(str, orbit))}")
    for d in range(len(theta)):
        if d < theta[d]:
            lines.append(f"e: {d} {theta[d]}")
    return "\n".join(lines) + "\n"


def relabel(sigma, theta, perm):
    """The same map with dart d renamed perm[d]."""
    n = len(sigma)
    s2 = [0] * n
    t2 = [0] * n
    for d in range(n):
        s2[perm[d]] = perm[sigma[d]]
        t2[perm[d]] = perm[theta[d]]
    return s2, t2


def bfs_relabel(sigma, theta, root=0):
    """Relabel darts in breadth-first order from `root`, following sigma
    then theta; consecutive labels stay close together on the map."""
    order = [root]
    seen = {root}
    for d in order:
        for nb in (sigma[d], theta[d]):
            if nb not in seen:
                seen.add(nb)
                order.append(nb)
    perm = [0] * len(sigma)
    for new, old in enumerate(order):
        perm[old] = new
    return relabel(sigma, theta, perm)


def shuffle_within_vertices(sigma, theta, rng):
    """Permute the three labels at each vertex (vertices keep their label
    block of the input order); a seeded relabelling that moves the least
    dart of faces without scattering neighbouring darts."""
    perm = list(range(len(sigma)))
    for orbit in orbits(sigma):
        labels = sorted(orbit)
        rng.shuffle(labels)
        for d, new in zip(orbit, labels):
            perm[d] = new
    return relabel(sigma, theta, perm)


def edges(theta):
    return [d for d in range(len(theta)) if d < theta[d]]


def connected_sum(a, ea, b, eb):
    """Delete edge ea of a and eb of b, cross-join the four ends.

    The new edges keep the rotation slots of the deleted ones; of the two
    end matchings exactly one is planar.  Darts of b are offset by |a|.
    """
    sa, ta = a
    sb, tb = b
    na = len(sa)
    sigma = list(sa) + [d + na for d in sb]
    base = list(ta) + [d + na for d in tb]
    p, q = ea, ta[ea]
    r, s = eb + na, tb[eb] + na
    for r1, s1 in ((r, s), (s, r)):
        theta = list(base)
        theta[p], theta[r1] = r1, p
        theta[q], theta[s1] = s1, q
        if is_sphere(sigma, theta):
            return sigma, theta
    raise ValueError("neither end matching is planar")


# -- omnitruncation ----------------------------------------------------------


def rotations_from_coordinates(points, edge_list):
    """Counterclockwise neighbour order seen from outside a convex solid
    centred at the origin."""
    nbrs = [[] for _ in points]
    for u, v in edge_list:
        nbrs[u].append(v)
        nbrs[v].append(u)
    out = []
    for v, p in enumerate(points):
        norm = math.sqrt(sum(x * x for x in p))
        n = [x / norm for x in p]

        def tangent(u):
            w = [points[u][i] - p[i] for i in range(3)]
            dot = sum(w[i] * n[i] for i in range(3))
            return [w[i] - dot * n[i] for i in range(3)]

        e1 = tangent(nbrs[v][0])
        e2 = [n[1] * e1[2] - n[2] * e1[1], n[2] * e1[0] - n[0] * e1[2], n[0] * e1[1] - n[1] * e1[0]]

        def angle(u):
            w = tangent(u)
            return math.atan2(sum(w[i] * e2[i] for i in range(3)), sum(w[i] * e1[i] for i in range(3)))

        out.append(sorted(nbrs[v], key=angle))
    return out


def omnitruncate(sigma, theta):
    """One vertex per flag (dart d, side s) of a polyhedral map.

    Flag (d, 0) lies on the face between d and sigma[d], flag (d, 1) on the
    face between sigma^-1[d] and d.  The flag swaps r0 (other vertex), r1
    (other edge) and r2 (other face) are the edges; the rotation runs
    r0, r1, r2 on one side class and the reverse on the other, which is the
    orientation that embeds on the sphere.  Result darts are 3*flag + k
    for swap k, so the labelling follows the input's dart order.
    """
    n = len(sigma)
    sigma_inv = [0] * n
    for d in range(n):
        sigma_inv[sigma[d]] = d

    def swap(flag, k):
        d, s = divmod(flag, 2)
        if k == 0:
            return 2 * theta[d] + (1 - s)
        if k == 1:
            return 2 * sigma[d] + 1 if s == 0 else 2 * sigma_inv[d]
        return 2 * d + (1 - s)

    n_flags = 2 * n
    for step in (1, 2):
        out_sigma = [0] * (3 * n_flags)
        out_theta = [0] * (3 * n_flags)
        for f in range(n_flags):
            turn = step if f % 2 == 0 else 3 - step
            for k in range(3):
                out_sigma[3 * f + k] = 3 * f + (k + turn) % 3
                out_theta[3 * f + k] = 3 * swap(f, k) + k
        if is_sphere(out_sigma, out_theta):
            return out_sigma, out_theta
    raise ValueError("no spherical orientation of the flag graph")
