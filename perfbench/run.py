#!/usr/bin/env python3
"""pumpsim benchmark: seeded workloads, end-to-end times, traced layer times.

Run from the repository root:

    python3 perfbench/run.py --workload attack_default --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 30

One run is one process.  It imports pumpsim from ``src/`` and loads its
generated inputs (the set-up, timed again in fresh child processes), then
repeats passes of the workload until ``--seconds`` is spent, at least twice.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced
passes and then traced ones, and reports the per-layer metrics.  The last line
of stdout is the JSON result; the line before it records the machine, the
source and the inputs.  ``--workload all`` runs every workload in turn, one
process at a time, and prints a table of every metric.  ``--tiny`` shrinks
the inputs for the harness's own tests without changing the code paths.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_PASSES = 2


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_pumpsim():
    """Import pumpsim from this checkout's source tree, never from elsewhere."""
    if not (SRC / "pumpsim" / "__init__.py").is_file():
        raise BenchError(f"no pumpsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pumpsim
    import pumpsim.cli  # the package does not import its CLI itself

    if Path(pumpsim.__file__).resolve().parent != (SRC / "pumpsim").resolve():
        raise BenchError(f"imported pumpsim from {pumpsim.__file__}")
    return pumpsim


def make_workload(name: str, seed: int, workdir: Path, tiny: bool):
    reference = None
    if seed == DEFAULT_SEED and not tiny:
        reference = json.loads(REFERENCE.read_text())[name]
    return workloads.WORKLOADS[name](seed, workdir, tiny=tiny,
                                     reference=reference)


def setup(name: str, seed: int, workdir: Path, tiny: bool):
    """Import pumpsim and set the workload up; returns (ps, workload)."""
    ps = import_pumpsim()
    workload = make_workload(name, seed, workdir, tiny)
    workload.setup(ps)
    return ps, workload


def child_setup_times(args, workdir: Path) -> list[dict]:
    """Set-up times of fresh processes, run one at a time."""
    times = []
    for k in range(SETUP_REPEATS):
        child_dir = workdir / f"setup{k}"
        child_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only",
               str(child_dir)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1]))
    return times


def run_pass(ops, tracer=None, clock=time.perf_counter) -> list[dict]:
    """Run each operation, timed, then check its result untimed."""
    records = []
    for run_id, op in enumerate(ops):
        if tracer is not None:
            tracer.run_id = run_id
            tracer.install()
        t0 = clock()
        try:
            value = op.run()
            error = None
        except Exception as exc:  # an operation's failure is a counted result
            error = f"{type(exc).__name__}: {exc}"
        seconds = clock() - t0
        if tracer is not None:
            tracer.uninstall()
        if error is None:
            try:
                problems = op.check(value)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        for problem in problems:
            print(f"{op.name}: {problem}", file=sys.stderr)
        records.append({"op": op.name, "phase": op.phase, "seconds": seconds,
                        "failed": bool(problems)})
    return records


def run_passes(workload, seconds: float, min_passes: int, tracer=None,
               on_pass=None, speed=None) -> list[list[dict]]:
    """Repeat passes while the next one is expected to fit in ``seconds``.

    With a ``HostSpeed``, each pass's times are adjusted by its speed factor;
    the times as measured are kept as ``raw_seconds``.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        if speed is None:
            records = run_pass(workload.ops(), tracer)
            factor = 1.0
        else:
            mark = len(speed.samples)
            records = run_pass(workload.ops(), tracer, speed.clock)
            factor = speed.factor(mark)
        for r in records:
            r["raw_seconds"] = r["seconds"]
            r["seconds"] *= factor
        passes.append(records)
        if on_pass is not None:
            on_pass(records)
        elapsed = time.perf_counter() - t0
        last = sum(r["raw_seconds"] for r in records)
        if len(passes) >= min_passes and elapsed + last > seconds:
            return passes


def wall(records, key="seconds") -> float:
    return sum(r[key] for r in records)


def phase_metrics(workload, passes) -> dict:
    """The workload's own end-to-end timings, e.g. fit_s or device_p90_s."""
    out = {}
    for metric, (phase, stat) in workload.phases.items():
        times = [r["seconds"] for records in passes for r in records
                 if r["phase"] == phase]
        if stat == "median":
            value = statistics.median(times)
        else:  # p90
            value = statistics.quantiles(times, n=10, method="inclusive")[-1]
        out[metric] = {"value": value, "unit": "s", "samples": len(times)}
    return out


def end_to_end(setup_times, passes) -> dict:
    return {
        "setup_s": (statistics.median(t["setup_s"] for t in setup_times), "s"),
        "wall_s": (statistics.median(wall(p) for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def layer_metrics(summary: dict, records: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, with the times adjusted by the
    pass's speed factor like the pass's own."""
    spans, facts = summary["spans"], summary["facts"]
    nested = summary["nested_simulations"]
    traced_wall = wall(records)
    factor = traced_wall / wall(records, "raw_seconds")

    def span(name, key):
        value = spans.get(name, {}).get(key, 0)
        return value if key == "calls" else value * factor

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name, key in [
        ("dynamics.simulate", "calls"), ("dynamics.simulate", "self_s"),
        ("dynamics.steady_state", "calls"), ("dynamics.steady_state", "self_s"),
        ("dynamics.to_csv", "self_s"),
        ("analysis.fit_eps_opt", "self_s"), ("analysis.pump_sweep", "self_s"),
        ("analysis.pulse_metrics", "calls"), ("analysis.pulse_metrics", "self_s"),
        ("analysis.light_current_curve", "self_s"),
        ("analysis.compute_dqe", "self_s"), ("analysis.knee_current", "self_s"),
        ("model.gain", "calls"), ("model.gain", "self_s"),
        ("model.photon_to_power", "self_s"),
        ("isolation.verdict", "calls"), ("isolation.verdict", "self_s"),
        ("isolation.load_chain_csv", "self_s"),
        ("scenario.load_scenario", "self_s"), ("cli.main", "self_s"),
    ]:
        m[f"{name}.{key}"] = (span(name, key), "count" if key == "calls" else "s")
    steps = facts.get("dynamics.steps", 0)
    csv_bytes = facts.get("dynamics.to_csv.bytes", 0)
    m.update({
        "dynamics.steps": (steps, "count"),
        "dynamics.ns_per_step": (
            ratio(span("dynamics.simulate", "self_s") * 1e9, steps), "ns"),
        "dynamics.measured_step_ratio": (
            ratio(facts.get("dynamics.measured_steps", 0), steps), "ratio"),
        "dynamics.samples_out": (facts.get("dynamics.samples_out", 0), "count"),
        "dynamics.to_csv.bytes": (csv_bytes, "B"),
        "dynamics.to_csv.mb_per_s": (
            ratio(csv_bytes / 1e6, span("dynamics.to_csv", "self_s")), "MB/s"),
        "analysis.fit_eps_opt.evaluations": (
            facts.get("analysis.fit_eps_opt.evaluations", 0), "count"),
        "analysis.fit_eps_opt.simulations": (
            nested.get("analysis.fit_eps_opt", 0), "count"),
        "analysis.pump_sweep.simulations": (
            nested.get("analysis.pump_sweep", 0), "count"),
        "analysis.pulse_metrics.samples_per_s": (
            ratio(facts.get("analysis.pulse_metrics.samples", 0),
                  span("analysis.pulse_metrics", "total_s")), "1/s"),
    })
    for layer, self_s in summary["layers"].items():
        m[f"layer.{layer}.self_s"] = (self_s * factor, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.coverage"] = (
        ratio(sum(summary["layers"].values()) * factor, traced_wall), "ratio")
    return m


def per_layer(workload, ps, seconds: float) -> tuple[dict, list]:
    """Untraced passes for half the time, then traced passes."""
    from tracer import Tracer

    per_pass = []
    with HostSpeed() as speed:
        tracer = Tracer(ps, clock=speed.clock)
        plain = run_passes(workload, seconds / 2.0, 1, speed=speed)
        traced = run_passes(
            workload, seconds / 2.0, 1, tracer, speed=speed,
            on_pass=lambda records: per_pass.append(
                layer_metrics(tracer.summary(), records)))
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    overhead = (statistics.median(wall(p) for p in traced)
                - statistics.median(wall(p) for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, plain + traced


def select(metrics: dict, section: str) -> dict:
    """The metrics BENCHMARK.json lists for this mode, checked by name and unit."""
    out = {}
    for entry in json.loads(SPEC.read_text())[section]:
        name = entry["name"]
        if name not in metrics:
            raise BenchError(f"metric {name} was not measured")
        value, unit = metrics[name]
        if unit != entry["unit"]:
            raise BenchError(f"metric {name} has unit {unit}, spec {entry['unit']}")
        out[name] = {"value": value, "unit": unit}
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    import yaml

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
    }


def source() -> dict:
    """The commit when run in a git work tree, and a digest of src/ always."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def measure(args, ps, workload, workdir: Path) -> tuple[dict, dict]:
    """One run of a set-up workload; returns (result, record)."""
    raw = {"raw_wall_s": None, "raw_setup_s": None}
    if args.trace:
        metrics, passes = per_layer(workload, ps, args.seconds)
        section = "per_layer"
    else:
        setup_times = child_setup_times(args, workdir)
        with HostSpeed() as speed:
            passes = run_passes(workload, args.seconds, MIN_PASSES,
                                speed=speed)
        metrics = end_to_end(setup_times, passes)
        section = "end_to_end"
        raw = {"raw_wall_s": statistics.median(wall(p, "raw_seconds")
                                               for p in passes),
               "raw_setup_s": statistics.median(t["raw_setup_s"]
                                                for t in setup_times)}
    attempted = sum(len(p) for p in passes)
    failed = sum(r["failed"] for p in passes for r in p)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": select(metrics, section)}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "passes": len(passes),
        "machine": machine(), "source": source(), "inputs": workload.inputs(),
        "failed_ratio": failed / attempted, **raw,
        "phases": phase_metrics(workload, passes),
        "reference_values": workload.observed,
    }
    return result, record


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints a table."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"{name} exited with {proc.returncode}")
        *_, record_line, result_line = proc.stdout.splitlines()
        result = json.loads(result_line)
        record = json.loads(record_line)["record"]
        rows = dict(result["metrics"])
        if not args.trace:
            rows.update(record["phases"])
            rows["failed_ratio"] = {"value": record["failed_ratio"], "unit": "-"}
        print(f"{name}  seed={args.seed} passes={record['passes']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}")
        for metric, figure in rows.items():
            print(f"  {metric:40s} {figure['value']:>16.6g} {figure['unit']}")
        results[name] = {"result": result, "record": record}
    print(json.dumps(results))
    return 0 if all(r["result"]["correct"] for r in results.values()) else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the harness's own tests")
    parser.add_argument("--setup-only", metavar="DIR", type=Path,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            with HostSpeed() as speed:
                t0 = speed.clock()
                setup(args.workload, args.seed, args.setup_only, args.tiny)
                raw = speed.clock() - t0
                print(json.dumps({"setup_s": raw * speed.factor(0),
                                  "raw_setup_s": raw}))
            return 0
        if args.workload == "all":
            return run_all(args)
        workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            (workdir / "run").mkdir()
            ps, workload = setup(args.workload, args.seed, workdir / "run",
                                 args.tiny)
            result, record = measure(args, ps, workload, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass  # another run is using it
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
