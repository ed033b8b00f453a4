"""Per-layer tracing from outside the package.

Each traced function is replaced by a wrapper in every sl3webs namespace
that binds it, so calls made inside a module (connectivity from
edge_3_coloring, the recursion of reducer.invariant) are caught as well.
A wrapper counts calls and accumulates its span and self time (span minus
the spans of traced calls made inside it).  Totals stay in memory and are
read out once at the end.  A name missing from the package is reported as
absent; the untraced run installs nothing.
"""

from __future__ import annotations

import functools
import sys
import time

# metric prefix -> (module, attribute path)
TARGETS = {
    "cli.main": ("cli", "main"),
    "planarmap.parse_web": ("planarmap", "parse_web"),
    "planarmap.validate": ("planarmap", "validate"),
    "planarmap.canonical_key": ("planarmap", "canonical_key"),
    "planarmap.connectivity": ("planarmap", "connectivity"),
    "planarmap.edge_3_coloring": ("planarmap", "edge_3_coloring"),
    "planarmap.is_circular": ("planarmap", "is_circular"),
    "reducer.invariant": ("reducer", "invariant"),
    "reducer.find_reducible": ("reducer", "find_reducible"),
    "reducer.apply_square": ("reducer", "apply_square"),
    "reducer.apply_bigon": ("reducer", "apply_bigon"),
    "primedec.find_2_edge_cuts": ("primedec", "find_2_edge_cuts"),
    "primedec.split": ("primedec", "split"),
    "primedec.simplify": ("primedec", "simplify"),
    "enumerator.circular_primes": ("enumerator", "circular_primes"),
    "enumerator.assemble_web": ("enumerator", "assemble_web"),
    "enumerator.pushing_moves": ("enumerator", "pushing_moves"),
    "symmetry.dth_root_search": ("symmetry", "dth_root_search"),
    "qlaurent.mul": ("qlaurent", "HalfLaurent.__mul__"),
    "qlaurent.mod_reduce": ("qlaurent", "mod_reduce"),
}


def _count_accepts(stat, result):
    stat["extra"] += result == 3


def _count_children(stat, result):
    stat["extra"] += len(result)


def _count_searched(stat, result):
    stat["extra"] += result.searched


# what a wrapper counts from the return value, into stat["extra"]
ON_RETURN = {
    "planarmap.connectivity": _count_accepts,
    "enumerator.pushing_moves": _count_children,
    "symmetry.dth_root_search": _count_searched,
}


class Tracer:
    def __init__(self):
        self.stats = {name: {"calls": 0, "self_s": 0.0, "span_s": 0.0, "extra": 0} for name in TARGETS}
        self.absent = []
        self._stack = []

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        on_return = ON_RETURN.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                inner = stack.pop()
                stat["calls"] += 1
                stat["span_s"] += span
                stat["self_s"] += span - inner
                if stack:
                    stack[-1] += span
            if on_return is not None:
                on_return(stat, result)
            return result

        return wrapper

    def install(self):
        namespaces = [m for n, m in list(sys.modules.items()) if n == "sl3webs" or n.startswith("sl3webs.")]
        for name, (module, path) in TARGETS.items():
            owner = sys.modules.get(f"sl3webs.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            # every module (or, for a method, class) namespace binding it
            for holder in namespaces + ([owner] if outer else []):
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)
