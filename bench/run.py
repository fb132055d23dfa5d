#!/usr/bin/env python3
"""Lifespan benchmark of the wavelifespan package.

Run from the root of a checkout, one run at a time:

    python3 bench/run.py --workload sweep_poly --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

The package is imported from the checkout's ``src/``.  A run sets up the
workload several times, then repeats one pass of work until ``--seconds``
would be exceeded.  It prints a report, then as its last line one JSON
object with the keys correct, attempted, failed and metrics.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics.  Each run writes its full
result, with a machine block and, when traced, every span, to ``bench/out/``.

Runs must not overlap: the benchmark is single-threaded and timed on a
machine with few cores, where a second run inflates every timing.
"""

import os

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:  # pinned before numpy is first imported
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep_poly", "survive_global", "verify_fields")
SETUP_REPS = 3  # set-ups before the first pass; one more comes before each later round
SETUP_PERIOD = 0.01  # probe period during a set-up, which lasts about 0.1 s


class NoPackage(RuntimeError):
    pass


def load_package() -> float:
    """First import of scipy and the package from ROOT/src; returns its time in s."""
    src = ROOT / "src"
    if not (src / "wavelifespan" / "__init__.py").is_file():
        raise NoPackage(f"no package source under {src}")
    sys.dont_write_bytecode = True
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import workloads  # scipy and the package

    elapsed = time.perf_counter() - t0
    if not Path(workloads.core.__file__).resolve().is_relative_to(src):
        raise NoPackage(f"wavelifespan was imported from {workloads.core.__file__}, not {src}")
    return elapsed


def machine_block() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "note": "runs must not overlap; the load averages show whether the machine was idle",
    }


def timing(samples: list) -> dict:
    """Median and the highest percentile that has at least ten samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples), "p_hi": None}
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - q / 100.0) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")[round(q * 10) - 1]
            out["p_hi"] = {"q": q, "value": cut}
            break
    return out


def _fine_share(spans, dur) -> float:
    """Share of march time under harness.sweep spent in the h/2 reruns."""
    NAME, PARENT, ATTRS = tracing.NAME, tracing.PARENT, tracing.ATTRS
    by_sweep: dict = {}
    for k, s in enumerate(spans):
        if s[NAME] == "solver.march" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "harness.sweep":
            by_sweep.setdefault(s[PARENT], []).append((s[ATTRS]["h"], dur[k]))
    total = fine = 0.0
    for marches in by_sweep.values():
        coarse = max(h for h, _ in marches)
        total += sum(d for _, d in marches)
        fine += sum(d for h, d in marches if h < coarse)
    return fine / total if total else 0.0


COUNTS = ("calls", "levels", "points", "steps")


def layer_metrics(spans, dur, n_passes: int, tally, overhead: float, ref_us: float) -> tuple:
    """Per-pass per-layer metrics from the traced passes' spans."""
    layers = tracing.summarize(spans, dur)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": {}}

    def total(layer, key):
        row = layers.get(layer, empty)
        return row[key] if key in row else row["attrs"].get(key, 0)

    def per_pass(layer, key):
        value = total(layer, key) / n_passes
        return int(value) if key in COUNTS and value.is_integer() else value

    levels = total("solver.march", "levels")
    m = {f"solver.march.{k}": per_pass("solver.march", k) for k in ("calls", "levels", "busy_s", "self_s")}
    m["solver.march.us_per_level"] = 1e6 * total("solver.march", "busy_s") / levels if levels else 0.0
    for k in ("calls", "busy_s", "self_s"):
        m[f"solver.apply_duhamel_field.{k}"] = per_pass("solver.apply_duhamel_field", k)
    for k in ("calls", "points", "busy_s", "self_s"):
        m[f"kernels.free_solution_dt.{k}"] = per_pass("kernels.free_solution_dt", k)
    for k in ("calls", "busy_s"):
        m[f"core.InitialData.{k}"] = per_pass("core.InitialData", k)
    m["kernels.nonlinear_weight.busy_s"] = per_pass("kernels.nonlinear_weight", "busy_s")
    m["kernels.weight_w.busy_s"] = per_pass("kernels.weight_w", "busy_s")
    m["harness.sweep.busy_s"] = per_pass("harness.sweep", "busy_s")
    m["harness.sweep.fine_share"] = _fine_share(spans, dur)
    m["harness.sweep.resolved_frac"] = tally.resolved / tally.rungs if tally.rungs else 0.0
    m["harness.verify_apriori.self_s"] = per_pass("harness.verify_apriori", "self_s")
    m["oracle.leapfrog_solve.busy_s"] = per_pass("oracle.leapfrog_solve", "busy_s")
    m["oracle.leapfrog_solve.steps"] = per_pass("oracle.leapfrog_solve", "steps")
    m["oracle.compare_fields.busy_s"] = per_pass("oracle.compare_fields", "busy_s")
    m["theory.calls"] = per_pass("theory", "calls")
    m["theory.busy_s"] = per_pass("theory", "busy_s")
    m["trace.overhead_frac"] = overhead
    m["ref.baseline_march.us_per_level"] = ref_us
    return m, layers


def baseline_march(tally, probe) -> dict:
    """ROADMAP baseline march: p=2, a=-0.5, b=0, eps=0.35, h=0.05, t_max=220."""
    from workloads import BUMP, GridSpec, ModelParams, Status, solver

    t0 = time.perf_counter()
    with probe:
        _, est = solver.march(
            ModelParams(2.0, -0.5, 0.0, 0.35, 1.0), BUMP, GridSpec(h=0.05, t_max=220.0, pad=1.0),
            keep_field=False,
        )
    wall = time.perf_counter() - t0 - probe.inside_s
    levels = len(est.sup_history) - 1
    ok = est.status is Status.blowup and abs(est.T_blow - 69.975) < 1e-9 and levels == 1400
    tally.op("baseline march blows up at T=69.975 after 1400 levels", ok, est.to_json())
    return {
        "wall_s": wall, "levels": levels, "T_blow": est.T_blow,
        "us_per_level": 1e6 * wall / levels, "ref_loop_s": probe.ref_s,
    }


def sweep_threads(wl, tally) -> dict:
    """sweep_poly with threads=1 then threads=2, back to back and without the
    probe, whose ticks would compete with the pool for the interpreter lock."""
    walls = {}
    for threads in (1, 2):
        t0 = time.perf_counter()
        wl.run_pass(tally, threads=threads)
        walls[threads] = time.perf_counter() - t0
    return {"threads1_wall_s": walls[1], "threads2_wall_s": walls[2], "threads2_over_threads1": walls[2] / walls[1]}


def _fresh_workloads():
    """Import the package and the workload module anew, as a new process would."""
    for mod in [m for m in sys.modules if m.split(".")[0] in ("wavelifespan", "workloads")]:
        del sys.modules[mod]
    return importlib.import_module("workloads")


def set_up(name: str, seed: int, sizes, probe) -> dict:
    """Package import, input generation and one warm-up call.

    Returns the wall time and the time in refs, both net of the probe
    ticks, with the workload module and the workload.
    """
    t0 = time.perf_counter()
    with probe:
        workloads = _fresh_workloads()
        wl = workloads.WORKLOADS[name](seed, sizes)
        wl.warm_up()
    wall = time.perf_counter() - t0 - probe.inside_s
    return {"wall_s": wall, "ref": wall / probe.ref_s, "workloads": workloads, "workload": wl}


def run_pass(wl, tally, probe, tracer=None, instrument=None) -> dict:
    """One pass of the workload under the speed probe, traced if a tracer is given."""
    if tracer is not None:
        instrument(tracer)
    try:
        t0 = time.perf_counter()
        with probe:
            if tracer is None:
                nodes = wl.run_pass(tally)
            else:
                with tracer.span("bench.pass"):
                    nodes = wl.run_pass(tally)
        wall = time.perf_counter() - t0 - probe.inside_s
    finally:
        if tracer is not None:
            tracer.unpatch()
    return {
        "traced": tracer is not None, "wall_s": wall, "ref_loop_s": probe.ref_s,
        "wall_ref": wall / probe.ref_s, "nodes": nodes,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, sizes, import_s: float) -> dict:
    """Set up, run passes for about `seconds`, check outputs; returns the full result."""
    load_before = os.getloadavg()
    setup_probe = speed.SpeedProbe(period=SETUP_PERIOD)
    setups = [set_up(name, seed, sizes, setup_probe) for _ in range(SETUP_REPS)]
    tally = setups[-1]["workloads"].Tally()
    tracer = tracing.Tracer()
    probe = speed.SpeedProbe(tracer.stack)
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        if passes:  # one more set-up per round spreads set-up over the run
            setups.append(set_up(name, seed, sizes, setup_probe))
        workloads, wl = setups[-1]["workloads"], setups[-1]["workload"]
        passes.append(run_pass(wl, tally, probe))
        if trace:
            passes.append(run_pass(wl, tally, probe, tracer, workloads.instrument))
        now = time.perf_counter()
        if now + (now - t0) > deadline:  # another round would overrun
            break

    plain = [p for p in passes if not p["traced"]]
    wall_ref = statistics.median(p["wall_ref"] for p in plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "first_import_s": import_s,
        "setup": timing([u["wall_s"] for u in setups]),
        "setup_ref": timing([u["ref"] for u in setups]),
        "wall": timing([p["wall_s"] for p in plain]),
        "wall_ref": timing([p["wall_ref"] for p in plain]),
        "ref_loop": timing([p["ref_loop_s"] for p in plain]),
        "mnodes_per_s": statistics.median(p["nodes"] / p["wall_s"] / 1e6 for p in plain),
        "passes": passes,
        "checks": tally.checks,
        "notes": tally.notes,
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        reference = {"baseline_march": baseline_march(tally, probe)}
        if name == "sweep_poly":
            reference["sweep_threads"] = sweep_threads(wl, tally)
        overhead = statistics.median(p["wall_ref"] for p in traced) / wall_ref - 1.0
        dur = tracing.durations(tracer.spans, probe.ticks)
        metrics, layers = layer_metrics(
            tracer.spans, dur, len(traced), tally, overhead, reference["baseline_march"]["us_per_level"]
        )
        result.update(
            traced=timing([p["wall_s"] for p in traced]),
            reference=reference,
            layers=layers,
            span_fields=["name", "start", "end", "parent", "attrs"],
            spans=tracer.spans,
            probe_ticks=probe.ticks,
        )
    else:
        metrics = {
            "setup_s": statistics.median(u["ref"] for u in setups) * speed.NOMINAL_S,
            "wall_ref": wall_ref,
            "knodes_per_ref": statistics.median(p["nodes"] / 1e3 / p["wall_ref"] for p in plain),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - tally.failed / tally.attempted,
        }
    result["peak_rss_mb"] = peak_rss_mb
    result["machine"] = dict(machine_block(), load_before=load_before, load_after=os.getloadavg())
    result["metrics"] = metrics
    result["line"] = {
        "correct": tally.failed == 0 and all(c in tally.checks for c in type(wl).CHECKS),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return result


UNITS = {
    "setup_s": "s", "wall_ref": "ref", "knodes_per_ref": "knodes/ref", "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "solver.march.calls": "count", "solver.march.levels": "count", "solver.march.busy_s": "s",
    "solver.march.self_s": "s", "solver.march.us_per_level": "us",
    "solver.apply_duhamel_field.calls": "count", "solver.apply_duhamel_field.busy_s": "s",
    "solver.apply_duhamel_field.self_s": "s",
    "kernels.free_solution_dt.calls": "count", "kernels.free_solution_dt.points": "count",
    "kernels.free_solution_dt.busy_s": "s", "kernels.free_solution_dt.self_s": "s",
    "core.InitialData.calls": "count", "core.InitialData.busy_s": "s",
    "kernels.nonlinear_weight.busy_s": "s", "kernels.weight_w.busy_s": "s",
    "harness.sweep.busy_s": "s", "harness.sweep.fine_share": "frac",
    "harness.sweep.resolved_frac": "frac", "harness.verify_apriori.self_s": "s",
    "oracle.leapfrog_solve.busy_s": "s", "oracle.leapfrog_solve.steps": "count",
    "oracle.compare_fields.busy_s": "s",
    "theory.calls": "count", "theory.busy_s": "s",
    "trace.overhead_frac": "frac", "ref.baseline_march.us_per_level": "us",
}


def report_lines(r: dict) -> list:
    def fmt(t, unit="s", digits=4):
        hi = t["p_hi"]
        tail = f"p{hi['q']:g} {hi['value']:.{digits}f}" if hi else "no percentile with 10 samples beyond it"
        return f"median {t['median']:.{digits}f} {unit}, {tail}, n={t['n']}"

    lines = [
        f"# workload {r['workload']}  seed {r['seed']}  seconds {r['seconds']}  trace {r['trace']}",
        "# machine " + json.dumps(r["machine"]),
        f"# first import of scipy and the package: {r['first_import_s']:.4f} s",
        f"# set-up (package import, inputs, warm-up): {fmt(r['setup'])}",
        f"# set-up in reference loops: {fmt(r['setup_ref'], 'ref', 1)}",
        f"# untraced pass wall: {fmt(r['wall'])}; {r['mnodes_per_s']:.4f} Mnodes/s",
        f"# reference loop during passes: {fmt(r['ref_loop'], 's', 6)}",
        f"# untraced pass wall in reference loops: {fmt(r['wall_ref'], 'ref', 1)}",
        f"# peak RSS {r['peak_rss_mb']:.1f} MB",
    ]
    if r["trace"]:
        lines.append(f"# traced pass wall: {fmt(r['traced'])}")
    for check, (att, fail, detail) in r["checks"].items():
        lines.append(f"# check {check}: {att - fail}/{att} ok" + (f"; last failure: {detail}" if fail else ""))
    for key, val in r["notes"].items():
        lines.append(f"# {key}: {val}")
    if r["trace"]:
        lines.append(f"# {'layer':<36}{'calls':>10}{'busy_s':>12}{'self_s':>12}  (all traced passes)")
        for layer, row in sorted(r["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"# {layer:<36}{row['calls']:>10}{row['busy_s']:>12.4f}{row['self_s']:>12.4f}")
        for ref, row in r["reference"].items():
            lines.append(f"# reference {ref}: " + json.dumps(row))
    for key, entry in r["line"]["metrics"].items():
        lines.append(f"{key:<40} {entry['value']!r:>24} {entry['unit']}")
    return lines


def write_result(r: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json"
    with open(path, "w") as fh:
        json.dump(r, fh)
    return path


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, one child process at a time."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                return proc.returncode
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            summary["correct"] = summary["correct"] and line["correct"]
            summary["attempted"] += line["attempted"]
            summary["failed"] += line["failed"]
            for key, entry in line["metrics"].items():
                summary["metrics"][f"{name}/{key}"] = entry
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"all-seed{seed}.json", "w") as fh:
        json.dump(summary, fh)
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        import_s = load_package()
    except NoPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    import workloads

    r = measure(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL, import_s)
    path = write_result(r)
    print("\n".join(report_lines(r)))
    print(f"# full result: {path.relative_to(ROOT)}")
    print(json.dumps(r["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
