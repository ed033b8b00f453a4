"""Command-line front end.

JSON on stdout by default (deterministic key order), human-readable text
with --pretty; exit code 0 on success, 1 on domain errors (invalid webs,
bad files), 2 on usage errors.  Web files are auto-detected as SIMPLE or
DART format; --format chooses the output serialization only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import defaultdict

from .enumerator import _last_layer, all_primes, build_catalog
from .planarmap import (
    MapError,
    _circular_witness,
    _polygonal_decompositions,
    canonical_form,
    canonical_key,
    isomorphic,
    parse_web,
    serialize_web,
)
from .primedec import decompose, identity_sides
from .qlaurent import QExprError, parse_qexpr
from .reducer import invariant
from .symmetry import DEFAULT_BUDGET, dth_root_search, symmetry_report
from .tables import TABLE_ROWS


def _read_web(path):
    if path == "-":
        return parse_web(sys.stdin.read())
    with open(path) as fh:
        return parse_web(fh.read())


def _emit(obj, pretty_text=None, pretty=False):
    if pretty and pretty_text is not None:
        print(pretty_text)
    else:
        print(json.dumps(obj, sort_keys=True))


def _cmd_invariant(args):
    web = _read_web(args.web)
    value = invariant(web)
    obj = {
        "invariant": value.to_json_obj(),
        "vertices": web.n_vertices,
        "circles": web.circles,
        "value_at_one": value.eval_at_one(),
    }
    _emit(obj, value.pretty(), args.pretty)
    return 0


def _cmd_decompose(args):
    web = _read_web(args.web)
    dec = decompose(web)
    values = [invariant(p) for p in dec.primes]
    lhs, rhs = identity_sides(dec, values)
    holds = lhs == rhs
    if args.pretty:
        lines = [f"k={dec.k} l={dec.l} identity_holds={holds}"]
        for i, (p, value) in enumerate(zip(dec.primes, values), 1):
            lines.append(f"prime {i}: {p.n_vertices} vertices, P = {value.pretty()}")
        print("\n".join(lines))
        return 0
    obj = {
        "k": dec.k,
        "l": dec.l,
        "primes": [serialize_web(p, args.format) for p in dec.primes],
        "identity_lhs": lhs.to_json_obj(),
        "identity_rhs": rhs.to_json_obj(),
        "identity_holds": holds,
    }
    _emit(obj)
    return 0


def _cmd_enumerate(args):
    n = args.vertices
    # a count needs no order, so its primes are not keyed
    webs = _last_layer(n) if args.count else all_primes(n)
    if args.circular_only:
        webs = [w for w in webs if _circular_witness(w.map, _polygonal_decompositions(w)) is not None]
    if args.count:
        _emit(len(webs), str(len(webs)), args.pretty)
        return 0
    obj = {
        "vertices": n,
        "circular_only": args.circular_only,
        "count": len(webs),
        "webs": [serialize_web(w, args.format) for w in webs],
    }
    _emit(obj, f"{len(webs)} webs with {n} vertices", args.pretty)
    return 0


def _cmd_catalog(args):
    entries = build_catalog(args.max_vertices)
    for e in entries:
        obj = {
            "name": e.name,
            "vertices": e.vertex_count,
            "invariant": e.invariant.to_json_obj(),
            "descriptions": [list(d) for d in e.descriptions],
            "circular": e.circular,
            "web": serialize_web(e.web, args.format),
        }
        if args.pretty:
            descs = " / ".join("+".join(map(str, d)) for d in e.descriptions)
            print(
                f"{e.name}: {e.invariant.pretty()}  [{descs}]  "
                f"{'circular' if e.circular else 'non-circular'}"
            )
        else:
            print(json.dumps(obj, sort_keys=True))
    return 0


def _cmd_canon(args):
    web = _read_web(args.web)
    canonical = canonical_form(web)
    text = serialize_web(canonical, args.format)
    _emit({"web": text, "key": canonical_key(web).hex()}, text.rstrip("\n"), args.pretty)
    return 0


def _cmd_iso(args):
    w1 = _read_web(args.web1)
    w2 = _read_web(args.web2)
    same = isomorphic(w1, w2)
    _emit({"isomorphic": same}, "isomorphic" if same else "not isomorphic", args.pretty)
    return 0


def _cmd_symmetry_check(args):
    web = _read_web(args.web)
    quotient = _read_web(args.quotient)
    report = symmetry_report(web, [(quotient, args.order)])
    entry = report["candidates"][0]
    text = (
        f"d={args.order}: congruent={entry.get('congruent')}"
        if "congruent" in entry
        else f"d={args.order}: skipped"
    )
    _emit(report, text, args.pretty)
    return 0


def _cmd_symmetry_root(args):
    if args.web is not None and args.expr is not None:
        raise MapError("symmetry-root takes a web file or --expr, not both")
    if args.expr is not None:
        target = parse_qexpr(args.expr)
    else:
        if args.web is None:
            raise MapError("symmetry-root needs a web file or --expr")
        target = invariant(_read_web(args.web))
    result = dth_root_search(target, args.order, budget=args.budget)
    text = f"{result.outcome} (searched {result.searched}): {result.detail}"
    _emit(result.to_json_obj(), text, args.pretty)
    return 0


def verify_paper(n_max=20):
    """Regenerate the catalog and compare against the reference tables.

    Rows are matched by structural fingerprint (size, descriptions,
    circularness) and, inside a shared fingerprint, by invariant; the
    typographically suspect rows are reported with computed values, never
    hard-failed.
    """
    entries = build_catalog(n_max)
    rows = [r for r in TABLE_ROWS if r.vertex_count <= n_max]
    transcribed = {r.name: r.invariant() for r in rows}
    sizes = {n: 0 for n in range(8, n_max + 1, 2)}
    for e in entries:
        sizes[e.vertex_count] += 1
    row_groups = defaultdict(list)
    ent_groups = defaultdict(list)
    for r in rows:
        row_groups[r.fingerprint()].append(r)
    for e in entries:
        ent_groups[(e.vertex_count, e.descriptions, e.circular)].append(e)
    row_reports = []
    unlisted = []
    for fp in sorted(set(row_groups) | set(ent_groups)):
        rgroup = row_groups.get(fp, [])
        egroup = list(ent_groups.get(fp, []))
        for r in rgroup:
            match = None
            if not r.suspect:
                for e in egroup:
                    if e.invariant == transcribed[r.name]:
                        match = e
                        break
            if match is None and egroup:
                match = egroup[0]
            if match is not None:
                egroup.remove(match)
            exact = match is not None and match.invariant == transcribed[r.name]
            row_reports.append(
                {
                    "row": r.name,
                    "suspect": r.suspect,
                    "structural_match": match is not None,
                    "invariant_exact": exact,
                    "transcribed": transcribed[r.name].pretty(),
                    "computed": None if match is None else match.invariant.pretty(),
                    "generated_name": None if match is None else match.name,
                }
            )
        unlisted.extend(e.name for e in egroup)
    row_reports.sort(key=lambda d: tuple(int(x) for x in d["row"].split("_")))
    exact_rows = [d["row"] for d in row_reports if d["invariant_exact"] and not d["suspect"]]
    return {
        "max_vertices": n_max,
        "size_histogram": sizes,
        "rows": row_reports,
        "unlisted_webs": unlisted,
        "summary": {
            "rows_total": len(rows),
            "structural_matches": sum(1 for d in row_reports if d["structural_match"]),
            "exact_invariants": len(exact_rows),
            "suspect_reported": sum(1 for d in row_reports if d["suspect"]),
        },
    }


def _cmd_verify_paper(args):
    report = verify_paper(args.max_vertices)
    lines = [
        "size histogram: "
        + " ".join(f"{n}:{c}" for n, c in sorted(report["size_histogram"].items()))
    ]
    for d in report["rows"]:
        if d["suspect"]:
            status = "SUSPECT"
            extra = f" transcribed={d['transcribed']} computed={d['computed']}"
        elif d["invariant_exact"]:
            status = "exact"
            extra = ""
        else:
            status = "MISMATCH"
            extra = f" transcribed={d['transcribed']} computed={d['computed']}"
        lines.append(f"{d['row']}: {status} (as {d['generated_name']}){extra}")
    s = report["summary"]
    lines.append(
        f"{s['exact_invariants']}/{s['rows_total']} rows exact, "
        f"{s['suspect_reported']} suspect rows reported, "
        f"{s['structural_matches']} structural matches"
    )
    _emit(report, "\n".join(lines), args.pretty)
    return 0


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@functools.cache
def _build_parser():
    """The argparse tree, built once: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="sl3webs",
        description="Quantum sl(3) invariants of cubic bipartite planar graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        return p

    p = add("invariant", _cmd_invariant, help="evaluate the invariant of a web file")
    p.add_argument("web", help="web file (SIMPLE or DART; '-' for stdin)")

    p = add("decompose", _cmd_decompose, help="prime decomposition of a web")
    p.add_argument("web")
    p.add_argument("--format", choices=("simple", "dart"), default="dart")

    p = add("enumerate", _cmd_enumerate, help="enumerate prime webs of a given size")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--circular-only", action="store_true")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.add_argument("--format", choices=("simple", "dart"), default="dart")

    p = add("catalog", _cmd_catalog, help="JSON-lines catalog of primes up to a size")
    p.add_argument("--max-vertices", type=int, default=20)
    p.add_argument("--format", choices=("simple", "dart"), default="dart")

    p = add("canon", _cmd_canon, help="canonical form of a web")
    p.add_argument("web")
    p.add_argument("--format", choices=("simple", "dart"), default="dart")

    p = add("iso", _cmd_iso, help="are two webs isomorphic (reflections included)?")
    p.add_argument("web1")
    p.add_argument("web2")

    p = add("symmetry-check", _cmd_symmetry_check, help="congruence test for a quotient candidate")
    p.add_argument("web")
    p.add_argument("quotient")
    p.add_argument("order", type=int)

    p = add("symmetry-root", _cmd_symmetry_root, help="d-th power residue search")
    p.add_argument("web", nargs="?", default=None)
    p.add_argument("order", type=int)
    p.add_argument("--expr", default=None, help="bracket expression instead of a web file")
    p.add_argument("--budget", type=_non_negative_int, default=DEFAULT_BUDGET)

    p = add("verify-paper", _cmd_verify_paper, help="regenerate the catalog and compare to the reference tables")
    p.add_argument("--max-vertices", type=int, default=20)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MapError, QExprError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
