"""Figure-level benchmark of afcsim.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decay_fig2 --seed 1 --seconds 15 --trace 0

The workload runs whole passes on one thread until ``--seconds`` have gone
(at least three passes), then prints one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# fresh interpreters started per run; set-up time is their median
SETUP_PROBES = 3
# passes per run at least, so that every reported time is a median of three
MIN_PASSES = 3


def _import_afcsim():
    """Import afcsim from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import afcsim
    elapsed = time.perf_counter() - start
    if Path(afcsim.__file__).resolve().parent != ROOT / "src" / "afcsim":
        raise ImportError(f"afcsim imported from {afcsim.__file__}, not {ROOT / 'src'}")
    return elapsed


def setup_probe(args, import_s):
    """Body of one fresh interpreter, after importing afcsim: build the
    inputs and report the monotonic clock, which is shared across processes."""
    from workloads import WORKLOADS
    WORKLOADS[args.workload](args.seed, OUT / "unused")
    print(json.dumps({"import_s": import_s, "ready": time.perf_counter()}))


def measure_setup(args):
    """Median set-up and import seconds over fresh interpreters."""
    setups, imports = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        spawned = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        setups.append(probe["ready"] - spawned)
        imports.append(probe["import_s"])
    return statistics.median(setups), statistics.median(imports)


def run_passes(workload, seconds, tracer):
    """Run whole passes for ``seconds`` (at least MIN_PASSES).

    With a tracer, odd passes are traced and even ones are not.  Checks run
    between calls, outside the timed spans.
    """
    from afcsim.errors import AfcSimError

    ops = workload.ops()
    passes = {False: [], True: []}
    latencies, problems = [], []
    attempted = failed = 0
    start = time.perf_counter()
    n = 0
    while n < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.install()
        pass_s = 0.0
        try:
            for kind, call in ops:
                t0 = time.perf_counter()
                try:
                    output = call()
                except AfcSimError as exc:
                    output = exc
                elapsed = time.perf_counter() - t0
                pass_s += elapsed
                if not traced:
                    latencies.append(elapsed)
                attempted += 1
                if isinstance(output, AfcSimError):
                    failed += 1
                    print(f"{kind}: {type(output).__name__}: {output}", file=sys.stderr)
                    continue
                found = workload.check(kind, output)
                if found:
                    failed += 1
                    problems += found
        finally:
            if traced:
                tracer.uninstall()
        passes[traced].append(pass_s)
        n += 1
    return passes, latencies, attempted, failed, problems


def layer_metrics(tracer, passes, workload, import_s, max_pop_err):
    """Per-layer numbers per traced pass, from spans and counts."""
    totals = tracer.totals()
    n = len(passes[True])
    traced_s = sum(passes[True]) / n
    untraced_s = sum(passes[False]) / len(passes[False])

    def row(name):
        return totals.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    def per_call_ms(name):
        r = row(name)
        return 1e3 * r["total_s"] / r["calls"] if r["calls"] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    evolve, spectrum, fit = row("pumping.evolve"), row("core.absorption_spectrum"), \
        row("fitting.fit_curve")
    counts = tracer.counts
    experiments_self = sum(r["self_s"] for k, r in totals.items()
                           if k.startswith("experiments."))
    values = {
        "pumping.evolve.self_s": (evolve["self_s"] / n, "s"),
        "pumping.evolve.bin_s_per_s": (
            ratio(counts["pumping.evolve"]["bin_s"], evolve["self_s"]), "bin.s/s"),
        "pumping.evolve.max_pop_err": (max_pop_err, "1"),
        "pumping.pump_rate_profile.self_s": (row("pumping.pump_rate_profile")["self_s"] / n, "s"),
        "core.absorption_spectrum.self_s": (spectrum["self_s"] / n, "s"),
        "core.absorption_spectrum.bins_per_s": (
            ratio(counts["core.absorption_spectrum"]["bins"], spectrum["self_s"]), "bin/s"),
        "readout.simulate_readout.self_s": (row("readout.simulate_readout")["self_s"] / n, "s"),
        "readout.hole_decay_experiment.self_s": (
            row("readout.hole_decay_experiment")["self_s"] / n, "s"),
        "readout.measure_hole.self_s": (row("readout.measure_hole")["self_s"] / n, "s"),
        "readout.measure_hole.ms_per_call": (per_call_ms("readout.measure_hole"), "ms"),
        "readout.analyze_comb.self_s": (row("readout.analyze_comb")["self_s"] / n, "s"),
        "readout.analyze_comb.ms_per_call": (per_call_ms("readout.analyze_comb"), "ms"),
        "fitting.fit_curve.self_s": (fit["self_s"] / n, "s"),
        "fitting.fit_curve.ms_per_call": (per_call_ms("fitting.fit_curve"), "ms"),
        "fitting.fit_curve.iterations": (counts["fitting.fit_curve"]["iterations"] / n, "count"),
        "fitting.fit_curve.converged_frac": (
            ratio(counts["fitting.fit_curve"]["converged"], fit["calls"]), "fraction"),
        "experiments.self_s": (experiments_self / n, "s"),
        "experiments.bytes_written": (
            statistics.mean(workload.bytes_written) if workload.bytes_written else 0.0,
            "bytes"),
        "afcsim.import_s": (import_s, "s"),
        "trace.wall_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.unattributed_s": (
            traced_s - sum(r["self_s"] for r in totals.values()) / n, "s"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_s = _import_afcsim()
    except ImportError as exc:
        print(f"cannot import afcsim from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args, import_s)
        return 0
    from tracing import Tracer

    setup_s, import_s = measure_setup(args)
    OUT.mkdir(exist_ok=True)
    artifacts = Path(tempfile.mkdtemp(prefix=f"artifacts-{args.workload}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, artifacts)
        passes, latencies, attempted, failed, problems = run_passes(
            workload, args.seconds, tracer)
        max_pop_err = 0.0
        checked = workload.reference_check()
        if checked is not None:
            max_pop_err, found = checked
            attempted += 1
            if found:
                failed += 1
                problems += found
    finally:
        shutil.rmtree(artifacts, ignore_errors=True)

    for problem in problems:
        print(problem, file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(tracer, passes, workload, import_s, max_pop_err)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "metrics": metrics})
    else:
        metrics = {
            "wall_s": {"value": statistics.median(passes[False]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
