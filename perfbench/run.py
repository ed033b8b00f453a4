"""The sl3webs benchmark.

    python3 perfbench/run.py --workload census --seed 1 --seconds 21 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--out perfbench/results.json]
    python3 perfbench/run.py --workload sums --smoke [--corrupt-op 0]

Run from the repository root.  Workloads (see workloads.py and
BENCHMARK.json): census, sums, solids, roots.  Every pass runs in a fresh
interpreter (fixed PYTHONHASHSEED, single-threaded numpy) with the package
imported from ./src.  A run makes as many passes as fit `--seconds` of
timed phase at the workload's nominal pass time (at least one) and
reports medians; pass i > 0 draws its inputs from seed "N/i".
`--trace 1` runs one untraced and one traced pass and reports the
per-layer metrics.
On census, sums and solids, times are reported at a reference host
speed: each pass times a fixed calibration kernel while it runs (see
worker.py).  A pass's times are multiplied by REF_KERNEL_S over the
kernel's median time: over the whole pass for wall_s and set-up, over
the operation's span widened by a second on each side for a latency.
The last stdout line is one JSON object: correct, attempted, failed and
metrics.  `--all` runs every workload with tracing off and on, prints a
table and writes the results with an environment block.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import NOMINAL_PASS_S, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # set-up-only interpreters per run, besides each pass
RUN_CAP_S = 150  # no further pass starts if it could end after this
PASS_TIMEOUT_S = 170
# a typical median time of worker.calibration_kernel on the 2-vCPU Xeon VM
# the baseline was taken on; the host's speed there swings by up to 2x
# within minutes, and wall times scaled by this over the kernel's time in
# the same pass read as if the host always ran at that speed
REF_KERNEL_S = 0.0065

END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _calls(name):
    return lambda L, w: L[name]["calls"]


def _self(name):
    return lambda L, w: L[name]["self_s"]


def _ratio(a, b):
    return a / b if b else 0.0


# per-layer metric -> (unit, value from traced layer totals L and walls w)
PER_LAYER = {
    "planarmap.connectivity.calls": ("count", _calls("planarmap.connectivity")),
    "planarmap.connectivity.self_s": ("s", _self("planarmap.connectivity")),
    "planarmap.connectivity.accept_ratio": (
        "ratio",
        lambda L, w: _ratio(L["planarmap.connectivity"]["extra"], L["planarmap.connectivity"]["calls"]),
    ),
    "primedec.find_2_edge_cuts.calls": ("count", _calls("primedec.find_2_edge_cuts")),
    "primedec.find_2_edge_cuts.self_s": ("s", _self("primedec.find_2_edge_cuts")),
    "primedec.split.self_s": ("s", _self("primedec.split")),
    "primedec.simplify.self_s": ("s", _self("primedec.simplify")),
    "planarmap.canonical_key.calls": ("count", _calls("planarmap.canonical_key")),
    "planarmap.canonical_key.self_s": ("s", _self("planarmap.canonical_key")),
    "reducer.invariant.calls": ("count", _calls("reducer.invariant")),
    "reducer.find_reducible.calls": ("count", _calls("reducer.find_reducible")),
    "reducer.memo_hit_ratio": (
        "ratio",
        lambda L, w: _ratio(
            L["reducer.invariant"]["calls"] - L["reducer.find_reducible"]["calls"],
            L["reducer.invariant"]["calls"],
        ),
    ),
    "reducer.apply_square.calls": ("count", _calls("reducer.apply_square")),
    "reducer.apply_square.self_s": ("s", _self("reducer.apply_square")),
    "reducer.apply_bigon.calls": ("count", _calls("reducer.apply_bigon")),
    "reducer.apply_bigon.self_s": ("s", _self("reducer.apply_bigon")),
    "planarmap.validate.calls": ("count", _calls("planarmap.validate")),
    "planarmap.validate.self_s": ("s", _self("planarmap.validate")),
    "enumerator.circular_primes.self_s": ("s", _self("enumerator.circular_primes")),
    "enumerator.assemble_web.calls": ("count", _calls("enumerator.assemble_web")),
    "enumerator.pushing_moves.calls": ("count", _calls("enumerator.pushing_moves")),
    "enumerator.pushing_moves.self_s": ("s", _self("enumerator.pushing_moves")),
    "enumerator.pushing_moves.children": ("count", lambda L, w: L["enumerator.pushing_moves"]["extra"]),
    "planarmap.edge_3_coloring.self_s": ("s", _self("planarmap.edge_3_coloring")),
    "planarmap.is_circular.self_s": ("s", _self("planarmap.is_circular")),
    "symmetry.dth_root_search.self_s": ("s", _self("symmetry.dth_root_search")),
    "symmetry.candidates": ("count", lambda L, w: L["symmetry.dth_root_search"]["extra"]),
    "symmetry.candidates_per_s": (
        "1/s",
        lambda L, w: _ratio(L["symmetry.dth_root_search"]["extra"], L["symmetry.dth_root_search"]["span_s"]),
    ),
    "qlaurent.mul.calls": ("count", _calls("qlaurent.mul")),
    "qlaurent.mul.self_s": ("s", _self("qlaurent.mul")),
    "qlaurent.mod_reduce.calls": ("count", _calls("qlaurent.mod_reduce")),
    "qlaurent.mod_reduce.self_s": ("s", _self("qlaurent.mod_reduce")),
    "planarmap.parse_web.self_s": ("s", _self("planarmap.parse_web")),
    "cli.main.self_s": ("s", _self("cli.main")),
    "trace.overhead_ratio": ("ratio", lambda L, w: _ratio(w["traced"], w["untraced"])),
}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def spawn(spec):
    """Run one worker; setup_s is from process start to inputs ready."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    scale = REF_KERNEL_S / result["kernel_s"] if result["kernel_s"] else 1.0
    result["setup_s"] = (result["ready"] - started) * scale
    if "wall_s" in result:
        result["raw_wall_s"] = result["wall_s"]
        result["wall_s"] *= scale
        result["latencies"] = [
            t * (REF_KERNEL_S / k if k else 1.0) for t, k in zip(result["latencies"], result["op_kernel_s"])
        ]
    return result


def percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_workload(workload, seed, seconds, trace, smoke=False, corrupt_op=-1):
    """One benchmark run, summarised."""
    workdir = os.path.join(HERE, "_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    spec = {
        "workload": workload,
        "seed": seed,
        "workdir": workdir,
        "smoke": smoke,
        "trace": False,
        "setup_only": False,
        "corrupt_op": corrupt_op,
    }
    deadline = time.monotonic() + RUN_CAP_S
    try:
        passes = [spawn(spec)]
        if trace:
            passes.append(spawn(dict(spec, trace=True)))
        else:
            setups = [spawn(dict(spec, setup_only=True))["setup_s"] for _ in range(SETUP_SAMPLES)]
            # later passes draw other inputs from the seed, so a run's
            # medians do not hang on one seed's draw of sums or labellings
            for i in range(1, round(seconds / NOMINAL_PASS_S[workload])):
                if time.monotonic() + 1.5 * passes[-1]["raw_wall_s"] + 5 > deadline:
                    break  # a very slow host: fewer passes, not a lost run
                passes.append(spawn(dict(spec, seed=f"{seed}/{i}")))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "passes": len(passes),
        "env": passes[0]["env"],
    }
    if trace:
        untraced, traced = passes
        layers = traced["layers"]
        walls = {"untraced": untraced["wall_s"], "traced": traced["wall_s"]}
        summary["metrics"] = {
            name: {"value": fn(layers, walls), "unit": unit} for name, (unit, fn) in PER_LAYER.items()
        }
        # self times partition the time inside cli.main, sampler ticks
        # included, so their sum is the denominator rather than wall_s
        traced_s = sum(stat["self_s"] for stat in layers.values())
        summary["shares"] = {
            name: stat["self_s"] / traced_s for name, stat in layers.items() if stat["calls"]
        }
        summary["absent"] = traced["absent"]
    else:
        # per-pass statistics, then the median over passes, so a second
        # pass does not shift where a percentile falls between op sizes
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "op_p50_s": statistics.median(statistics.median(p["latencies"]) for p in passes),
            "op_p90_s": statistics.median(percentile(p["latencies"], 90) for p in passes),
            "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        summary["metrics"] = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
        summary["op_samples"] = len(passes[0]["latencies"])
        summary["raw_wall_s"] = [p["raw_wall_s"] for p in passes]
        summary["kernel_s"] = [p["kernel_s"] for p in passes]
    return summary


def commit_of_checkout():
    """HEAD of ./.git when the checkout is a git repository, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_all(seed, seconds, out_path):
    report = {"seed": seed, "seconds": seconds, "commit": commit_of_checkout(), "workloads": {}}
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        report["env"] = plain.pop("env")
        traced.pop("env")
        report["workloads"][workload] = {"untraced": plain, "traced": traced}
        print(f"{workload}: {plain['attempted']} ops, {plain['failed']} failed, {plain['passes']} pass(es)")
        for name, m in plain["metrics"].items():
            print(f"  {name:<12} {m['value']:12.4f} {m['unit']}")
        top = sorted(traced["shares"].items(), key=lambda kv: -kv[1])[:5]
        print("  traced self-time shares: " + ", ".join(f"{k} {v:.0%}" for k, v in top))
        print(f"  trace.overhead_ratio {traced['metrics']['trace.overhead_ratio']['value']:.3f}")
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return all(w["untraced"]["correct"] and w["traced"]["correct"] for w in report["workloads"].values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=21.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--corrupt-op", type=int, default=-1, help="perturb this op's output (tests)")
    parser.add_argument("--all", action="store_true", help="every workload, traced and untraced")
    parser.add_argument("--out", default=os.path.join(HERE, "results.json"))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sl3webs", "cli.py")):
        print(f"error: no sl3webs package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.all:
            return 0 if run_all(args.seed, args.seconds, args.out) else 1
        if args.workload is None:
            parser.error("--workload is required unless --all is given")
        summary = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.corrupt_op
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in summary["failures"][:10]:
        print(f"FAILED op {failure['op']} {failure['argv']}: {failure['error']}", file=sys.stderr)
    for name in summary.get("absent", []):
        print(f"absent: {name} is not in this version of the package", file=sys.stderr)
    print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
