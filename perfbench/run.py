#!/usr/bin/env python3
"""Seeded, layered benchmark of pkmkin.

Run from the repository root (it imports pkmkin from ./src):

    python3 perfbench/run.py --workload tool-roundtrip --seed 7 --seconds 20 --trace 0

One closed-loop client runs the workload's timed item over a pool of
inputs drawn from --seed for --seconds seconds, checks every output outside
the timed part, and prints the end-to-end metrics (--trace 0) or the
per-layer metrics from a span-traced run (--trace 1).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Results and traces are written under ./.perfbench/.  See perfbench/README.md.
"""

import os

# numpy's BLAS pool is pinned to one thread before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import calibration
import tracer as tr
from stats import tail_percentile

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".perfbench")
GEOMETRY = os.path.join(HERE, "synthetic.cfg")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 7
BLOCK_S = 0.05
MIN_SPAN_COVERAGE = 0.95
SUBPROCESS_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; self_pct is a span's self time as a share of
# traced item time, so that a layer a workload bypasses reads 0 %, not 0 us
PER_LAYER_UNITS = {
    "rootfind.real_roots.self_pct": "%",
    "rootfind.real_roots.calls": "count",
    "rootfind.real_roots.roots_per_degree": "ratio",
    "parallel_ik.orientation_candidates.self_pct": "%",
    "parallel_ik.enumerate_ik.self_pct": "%",
    "parallel_ik.enumerate_ik.branches_per_call": "count",
    "parallel_ik.select_working_solution.none_ratio": "ratio",
    "parallel_ik.select_working_solution.ambiguous_ratio": "ratio",
    "parallel_fk.octic_from_joints.self_pct": "%",
    "parallel_fk.octic_from_joints.errors_per_call": "ratio",
    "parallel_fk.enumerate_fk.self_pct": "%",
    "parallel_fk.enumerate_fk.modes_per_call": "count",
    "parallel_fk.enumerate_fk.modes_per_root": "ratio",
    "parallel_fk.select_assembly_mode.none_ratio": "ratio",
    "parallel_fk.select_assembly_mode.ambiguous_ratio": "ratio",
    "machine.tilt_polynomial.self_pct": "%",
    "machine.tilt_candidates.self_pct": "%",
    "machine.tilt_candidates.tilts_per_call": "count",
    "machine.tool_ik.self_pct": "%",
    "machine.tool_ik.branches_per_call": "count",
    "machine.tool_pose_from_platform.self_pct": "%",
    "machine.select_machine_solution.none_ratio": "ratio",
    "machine.select_machine_solution.ambiguous_ratio": "ratio",
    "oracle.newton_fk.self_pct": "%",
    "oracle.newton_fk.poses_per_call": "count",
    "oracle.newton_fk.unmatched_per_call": "count",
    "layer.rootfind.self_pct": "%",
    "layer.parallel_ik.self_pct": "%",
    "layer.parallel_fk.self_pct": "%",
    "layer.machine.self_pct": "%",
    "layer.oracle.self_pct": "%",
    "setup.import_s": "s",
    "geometry.read_geometry_file.us": "us",
    "cli.first_call_us": "us",
    "trace.item_us": "us",
    "trace.overhead_ratio": "ratio",
}


def load_pkmkin():
    """Import pkmkin from ./src of the current directory, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "pkmkin", "__init__.py")):
        raise SystemExit("perfbench: no pkmkin source under ./src; "
                         "run from the repository root")
    sys.path.insert(0, SRC)
    import pkmkin
    import pkmkin.cli  # noqa: F401  (the CLI module is a traced layer too)
    if not os.path.abspath(pkmkin.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: pkmkin imported from {pkmkin.__file__}, not ./src")
    return pkmkin


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over pkmkin's source files: names the code where git cannot."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "pkmkin")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def cli_argv(workload, first_input):
    command, *rest = workload.cli(first_input)
    return [command, GEOMETRY, "--format", "csv", *rest]


def _wall(command):
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def fresh_processes(argv, script):
    """SETUP_REPEATS fresh processes running `script`, each between two bare
    interpreter starts; yields (scaled wall time, scale, result).

    Process start-up swings with the host like busy code does, but the
    in-process kernel does not track it; a bare `python3 -c pass` does.
    """
    bare = [sys.executable, "-c", "pass"]
    before, _ = _wall(bare)
    for _ in range(SETUP_REPEATS):
        elapsed, proc = _wall([sys.executable, *script, *argv])
        after, _ = _wall(bare)
        factor = calibration.process_scale(before, after)
        yield elapsed * factor, factor, proc
        before = after


def setup_time(argv, expected_rows):
    """Median (scaled, raw) time of fresh `pkmkin` CLI calls; checks each call's rows."""
    times, raw, problems = [], [], []
    for elapsed, factor, proc in fresh_processes(argv, ["-m", "pkmkin.cli"]):
        rows = len(proc.stdout.splitlines()) - 1
        if proc.returncode != (0 if expected_rows else 2) or rows != expected_rows:
            problems.append(f"CLI exit {proc.returncode} with {rows} rows, "
                            f"expected {expected_rows}: {proc.stderr.strip()[-200:]}")
        times.append(elapsed)
        raw.append(elapsed / factor)
    return statistics.median(times), statistics.median(raw), problems


def setup_breakdown(argv):
    """Medians of import, geometry-parse and first-call time in fresh processes."""
    samples, problems = [], []
    for _, factor, proc in fresh_processes(argv, [os.path.join(HERE, "cli_probe.py")]):
        if proc.returncode != 0:
            problems.append(f"CLI probe failed: {proc.stderr.strip()[-200:]}")
            continue
        raw = json.loads(proc.stdout.splitlines()[-1])
        samples.append({key: raw[key] * factor
                        for key in ("import_s", "read_geometry_us", "first_call_us")})
    if not samples:
        return {}, problems
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}, problems


def drift(workload, geom, reference):
    """Largest difference of outputs on the default seed's first items."""
    ref = reference["outputs"].get(workload.name)
    if ref is None:
        return None, "no reference stored"
    inputs = workload.inputs(geom, np.random.default_rng(DEFAULT_SEED), len(ref))
    worst = 0.0
    for index, (item, expected) in enumerate(zip(inputs, ref)):
        got = workload.flatten(workload.run(geom, item, index))
        if len(got) != len(expected):
            return math.inf, f"item {index}: {len(got)} output values, reference has {len(expected)}"
        worst = max([worst, *(abs(a - b) for a, b in zip(got, expected))])
    return worst, None


def mode_census(wl, workload, geom, reference):
    """Default-seed inputs whose number of assembly modes is not the stored
    one: a lost or spurious mode is an error, where float drift is not."""
    expected = reference["modes"].get(workload.name)
    if expected is None:
        return []
    counts = wl.mode_counts(geom, wl.make_inputs(workload, geom, DEFAULT_SEED))
    return [f"default-seed input {index}: {got} assembly modes, reference has {want}"
            for index, (got, want) in enumerate(zip(counts, expected)) if got != want]


def write_reference(wl, geom):
    """Store the outputs for the first pool/50 inputs (at least 3) of the
    default seed, and the mode counts of its whole pool for slider-triple inputs."""
    outputs, modes = [], []
    for w in wl.WORKLOADS.values():
        inputs = w.inputs(geom, np.random.default_rng(DEFAULT_SEED), max(3, w.pool // 50))
        items = ",\n".join("    " + json.dumps(w.flatten(w.run(geom, item, i)))
                           for i, item in enumerate(inputs))
        outputs.append(f'  "{w.name}": [\n{items}\n  ]')
        if w.name in wl.FK_WORKLOADS:
            counts = wl.mode_counts(geom, wl.make_inputs(w, geom, DEFAULT_SEED))
            modes.append(f'  "{w.name}": {json.dumps(counts)}')
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {DEFAULT_SEED},\n"modes": {{\n' + ",\n".join(modes)
                 + '\n},\n"outputs": {\n' + ",\n".join(outputs) + "\n}}\n")


class Loop:
    """Closed-loop execution over the input pool: one client, checks untimed.

    Executions run in blocks of about BLOCK_S; a calibration sample between
    blocks gives each block's scale to reference time (see calibration.py).
    """

    def __init__(self, workload, geom, pool):
        self.w, self.geom, self.pool = workload, geom, pool
        self.latency = [[] for _ in pool]  # scaled untraced execution times per input
        self.raw_latency = [[] for _ in pool]
        self.calibrations = []
        self.raw_busy_s = 0.0              # untraced executions, unscaled
        self.raw_traced_s = 0.0            # traced executions, unscaled
        self.traced_s = 0.0                # traced executions, scaled
        self.attempted = 0
        self.failures = {}                 # pool index -> first failure reason
        self.failed = 0
        self.counts = {}

    def execute(self, index, tracer=None, item_id=-1):
        """Run input `index` once, traced as item `item_id` when that is >= 0,
        then check the output with tracing paused; returns the run's seconds."""
        item = self.pool[index]
        if tracer is not None:
            tracer.item_id = item_id
        t0 = time.perf_counter()
        try:
            out = self.w.run(self.geom, item, index)
        except Exception as exc:  # a failing item is reported, never fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.item_id = -1
        reason, counts = (error, {}) if error else self.w.check(self.geom, item, out)
        self.attempted += 1
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        if reason is not None:
            self.failed += 1
            self.failures.setdefault(index, reason)
        return elapsed

    def _step(self, k, tracer):
        """Run input k % pool once, or untraced and traced back to back
        (alternating which goes first); returns (untraced, traced) seconds."""
        index = k % len(self.pool)
        if tracer is None:
            return index, self.execute(index), 0.0
        times = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            times[traced] = self.execute(index, tracer, k if traced else -1)
        return index, times[False], times[True]

    def machine_speed(self):
        """Reference kernel time over the run's median kernel time."""
        return calibration.REFERENCE_S / statistics.median(self.calibrations)

    def run(self, seconds, tracer=None):
        """Run for `seconds`; untraced runs also finish their first pass over
        the pool, so that every input has a latency."""
        start = time.perf_counter()
        deadline = start + seconds
        k = 0
        before = calibration.sample()
        self.calibrations.append(before)
        first_pass = len(self.pool) if tracer is None else 0
        while k < first_pass or time.perf_counter() < deadline:
            block = []
            block_end = time.perf_counter() + BLOCK_S
            while not block or time.perf_counter() < block_end:
                block.append(self._step(k, tracer))
                k += 1
            after = calibration.sample()
            self.calibrations.append(after)
            factor = calibration.scale(before, after)
            for index, plain, traced in block:
                self.latency[index].append(plain * factor)
                self.raw_latency[index].append(plain)
                self.raw_busy_s += plain
                self.raw_traced_s += traced
                self.traced_s += traced * factor
            before = after
        return k


def end_to_end(loop, setup_s):
    """Medians and tails are over inputs; an input's latency is the median
    of its repeats."""
    item_latency = [statistics.median(t) for t in loop.latency if t]
    executions = sum(len(t) for t in loop.latency)
    busy = sum(sum(t) for t in loop.latency)
    tail, percentile, samples = tail_percentile([1e6 * t for t in item_latency])
    metrics = {
        "throughput_per_s": executions / busy,
        "latency_p50_us": 1e6 * statistics.median(item_latency),
        "latency_tail_us": tail,
        "success_ratio": 1.0 - loop.failed / loop.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"tail_percentile": percentile, "tail_samples": samples,
            "items_timed": len(item_latency), "executions": executions,
            "raw_throughput_per_s": executions / loop.raw_busy_s,
            "raw_latency_p50_us": 1e6 * statistics.median(
                statistics.median(t) for t in loop.raw_latency if t)}
    return metrics, info


def per_layer(loop, spans, names, summary, self_t, traced_items, breakdown):
    def entry(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "size_sum": 0, "none": 0,
                                  "aux_sum": 0, "errors": {1: 0, 2: 0, 3: 0}})

    def pct(name):
        return 100.0 * entry(name)["self_s"] / loop.raw_traced_s

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(name, value):
        return ratio(value, entry(name)["calls"])

    fk_roots = 0
    if "parallel_fk.enumerate_fk" in names and "rootfind.real_roots" in names:
        fk_id = names.index("parallel_fk.enumerate_fk")
        rr_id = names.index("rootfind.real_roots")
        parents = spans["parent"]
        is_rr = spans["name"] == rr_id
        under_fk = is_rr & (parents >= 0)
        under_fk[under_fk] = spans["name"][parents[under_fk]] == fk_id
        fk_roots = int(spans["size"][under_fk].sum())
    metrics = {}
    for name in PER_LAYER_UNITS:
        head, _, tail = name.rpartition(".")
        if tail == "self_pct" and head.startswith("layer."):
            module = head.split(".", 1)[1]
            metrics[name] = 100.0 * sum(e["self_s"] for n, e in summary.items()
                                        if n.startswith(module + ".")) / loop.raw_traced_s
        elif tail == "self_pct":
            metrics[name] = pct(head)
    rr = entry("rootfind.real_roots")
    metrics.update({
        "rootfind.real_roots.calls": ratio(rr["calls"], traced_items),
        "rootfind.real_roots.roots_per_degree": ratio(rr["size_sum"], rr["aux_sum"]),
        "parallel_ik.enumerate_ik.branches_per_call":
            per_call("parallel_ik.enumerate_ik", entry("parallel_ik.enumerate_ik")["size_sum"]),
        "parallel_fk.octic_from_joints.errors_per_call":
            per_call("parallel_fk.octic_from_joints",
                     entry("parallel_fk.octic_from_joints")["errors"][tr.INTERPOLATION]),
        "parallel_fk.enumerate_fk.modes_per_call":
            per_call("parallel_fk.enumerate_fk", entry("parallel_fk.enumerate_fk")["size_sum"]),
        "parallel_fk.enumerate_fk.modes_per_root":
            ratio(entry("parallel_fk.enumerate_fk")["size_sum"], fk_roots),
        "machine.tilt_candidates.tilts_per_call":
            per_call("machine.tilt_candidates", entry("machine.tilt_candidates")["size_sum"]),
        "machine.tool_ik.branches_per_call":
            per_call("machine.tool_ik", entry("machine.tool_ik")["size_sum"]),
        "oracle.newton_fk.poses_per_call":
            per_call("oracle.newton_fk", entry("oracle.newton_fk")["size_sum"]),
        "oracle.newton_fk.unmatched_per_call":
            ratio(loop.counts.get("unmatched", 0), loop.attempted),
    })
    for select in ("parallel_ik.select_working_solution", "parallel_fk.select_assembly_mode",
                   "machine.select_machine_solution"):
        e = entry(select)
        metrics[f"{select}.none_ratio"] = per_call(select, e["none"])
        metrics[f"{select}.ambiguous_ratio"] = per_call(select, e["errors"][tr.AMBIGUOUS])
    metrics.update({
        "setup.import_s": breakdown.get("import_s", 0.0),
        "geometry.read_geometry_file.us": breakdown.get("read_geometry_us", 0.0),
        "cli.first_call_us": breakdown.get("first_call_us", 0.0),
        "trace.item_us": 1e6 * loop.traced_s / traced_items,
        "trace.overhead_ratio": loop.raw_traced_s / loop.raw_busy_s,
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's outputs as the drift reference")
    args = parser.parse_args(argv)

    pkmkin = load_pkmkin()
    import workloads as wl

    geom = pkmkin.read_geometry_file(GEOMETRY)
    if args.write_reference:
        write_reference(wl, geom)
        return 0
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    layers = [pkmkin.geometry, pkmkin.rootfind, pkmkin.parallel_ik, pkmkin.parallel_fk,
              pkmkin.machine, pkmkin.oracle, pkmkin.cli]

    pool = wl.make_inputs(w, geom, args.seed)
    argv_cli = cli_argv(w, pool[0])
    if args.trace:
        breakdown, problems = setup_breakdown(argv_cli)
    else:
        expected_rows = w.cli_rows(w.run(geom, pool[0], 0))
        setup_s, raw_setup_s, problems = setup_time(argv_cli, expected_rows)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    # the drift items also warm the code paths before timing
    output_drift, drift_note = drift(w, geom, reference)
    problems += mode_census(wl, w, geom, reference)

    loop = Loop(w, geom, pool)
    hygiene = []
    if args.trace:
        tracer = tr.Tracer({pkmkin.AmbiguousSelectionError: tr.AMBIGUOUS,
                            pkmkin.InterpolationError: tr.INTERPOLATION})
        tracer.install(layers, [pkmkin, *layers])
        try:
            executions = loop.run(args.seconds, tracer)
        finally:
            hygiene = [f"not restored: {a}" for a in tracer.restore()]
        spans = tracer.arrays()
        summary, self_t = tr.summarize(spans, tracer.names)
        metrics = per_layer(loop, spans, tracer.names, summary, self_t, executions, breakdown)
        os.makedirs(OUT, exist_ok=True)
        np.savez(os.path.join(OUT, f"trace-{w.name}.npz"), names=np.array(tracer.names), **spans)
        # The summed self time accounts for the untraced item time within the
        # tracing overhead when it covers the traced item time: untraced time
        # = self time / overhead ratio, up to the benchmark's own glue code.
        coverage = float(self_t.sum()) / loop.raw_traced_s
        if coverage < MIN_SPAN_COVERAGE:
            problems.append(f"spans cover only {coverage:.3f} of the traced item time")
        info = {"traced_items": executions, "spans": len(tracer.name),
                "trace_self_coverage_ratio": coverage}
    else:
        loop.run(args.seconds)
        hygiene = [f"wrapper installed: {a}" for a in tr.wrapped_attributes([pkmkin, *layers])]
        metrics, info = end_to_end(loop, setup_s)
        info["raw_setup_s"] = raw_setup_s

    problems += hygiene
    provenance = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "git_commit": git_commit(),
        "pkmkin_source_sha256": source_digest(),
        "pool_items": len(pool), "attempted": loop.attempted, "failed": loop.failed,
        "machine_speed": loop.machine_speed(),
        "failure_ratio": loop.failed / loop.attempted,
        "output_drift_max": output_drift if output_drift is None or math.isfinite(output_drift)
        else "inf", "output_drift_note": drift_note,
        **info,
    }
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{w.name}  {name:52s} {metrics[name]:16.6f} {unit}")
    if not args.trace:
        print(f"{w.name}  {'failure_ratio':52s} {provenance['failure_ratio']:16.6f} ratio")
        print(f"{w.name}  latency_tail_us is p{info['tail_percentile']:.3f} "
              f"of {info['tail_samples']} inputs")
    print(f"{w.name}  output_drift_max {provenance['output_drift_max']} "
          f"(default seed {DEFAULT_SEED}, {drift_note or 'vs stored reference'})")
    for index, reason in sorted(loop.failures.items()):
        print(f"{w.name}  FAILED input {index}: {reason}")
    for problem in problems:
        print(f"{w.name}  PROBLEM {problem}")
    correct = loop.failed == 0 and not problems
    result = {"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "provenance": provenance, "failures": loop.failures,
                   "problems": problems}, fh, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
