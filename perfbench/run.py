"""quasifractal benchmark: seeded closed-loop request streams through the CLI.

    python3 perfbench/run.py --workload {skeleton,pieces,query} --seed N \\
        --seconds S --trace {0,1}

One client in one process sends requests back to back; each request is
`quasifractal.cli.main(argv)` writing its outputs into a scratch
directory under perfbench/work/. An untimed `gc.collect()` precedes each
request, so every request starts from a clean heap as a fresh CLI
process would. Every output is checked against independently computed
values (checks.py), and the byte-identity guard (guard.py) re-checks a
fixed matrix of outputs against recorded digests.

--trace 0 reports the end-to-end metrics: request latency p50 and p90,
throughput (requests per second of request time), peak RSS of this
process, and set-up time (median of this process's set-up and two more
set-ups in fresh processes). A run lasts --seconds and at least 100
requests, so that ten or more lie beyond p90. Latencies and throughput
are wall times rescaled to a reference host speed measured by a
calibration kernel beside every request (calibration.py); the raw
wall-time figures are printed and recorded beside them. Set-up time is
wall time: it is one span of mostly numpy and allocation work, which a
single calibration point beside it does not track. The failed ratio is
printed but kept out of the metrics object: the result line reports
failures as `failed` out of `attempted`.

--trace 1 runs the stream untraced for half the time and traced for the
other half (tracer.py), reports self time and counts per layer plus the
tracing overhead, and times the ROADMAP baseline points (probe.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A longer record, with the
environment stamp, goes to perfbench/results/.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import checks  # noqa: E402
import guard  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
# p90 needs at least ten requests beyond it.
MIN_REQUESTS = 100

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "req/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# name -> unit; "_s" metrics are self time summed over the traced half.
PER_LAYER = {
    "geometry.segment_components_s": "s",
    "geometry.segment_index_s": "s",
    "geometry.union_length_s": "s",
    "geometry.ids_through.calls": "count",
    "geometry.ids_through.hits_per_call": "1",
    "geometry.covers.calls": "count",
    "unionfind.union.calls": "count",
    "unionfind.union.useful_ratio": "1",
    "cantor.build_s": "s",
    "cantor.refine_s": "s",
    "cantor.connectivity_s": "s",
    "cantor.cells": "count",
    "cantor.segments": "count",
    "cantor.dedup_ratio": "1",
    "spatial.build_spatial_s": "s",
    "spatial.boundary_incidence_s": "s",
    "spatial.connectivity3_s": "s",
    "spatial.series_measures_s": "s",
    "spatial.dedup_ratio": "1",
    "spatial.pieces": "count",
    "planar.build_planar_s": "s",
    "planar.area_accounting_s": "s",
    "planar.kept": "count",
    "planar.removed": "count",
    "document.serialise_s": "s",
    "document.parse_s": "s",
    "document.bytes_out": "bytes",
    "document.bytes_in": "bytes",
    "render.render_svg_s": "s",
    "render.export_obj_s": "s",
    "render.bytes_out": "bytes",
    "topology.from_pieces_s": "s",
    "topology.index_vector_s": "s",
    "topology.windings": "count",
    "toeplitz.winding_by_argument_s": "s",
    "toeplitz.fredholm_index_s": "s",
    "toeplitz.winding_by_roots_s": "s",
    "toeplitz.truncate_s": "s",
    "toeplitz.random_symbol_s": "s",
    "cli.self_s": "s",
    "cli.request_s": "s",
    "cli.requests": "count",
    "cli.failed": "count",
    "trace.overhead_ratio": "1",
}


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="quasifractal benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import quasifractal from the checkout's src/, and nowhere else."""
    if not (SRC / "quasifractal" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source at {SRC / 'quasifractal'}")
    sys.path.insert(0, str(SRC))
    import quasifractal
    import quasifractal.cli

    if Path(quasifractal.__file__).resolve().parent != SRC / "quasifractal":
        sys.exit(f"benchmark: imported quasifractal from {quasifractal.__file__}, not {SRC}")
    return quasifractal


def run_request(main, request, docs, tally: Tally, tracer=None) -> float:
    """Send one request; returns its wall time and tallies its check."""
    for path in checks.outputs(request.argv).values():
        path.unlink(missing_ok=True)  # a check must never read an earlier request's file
    gc.collect()
    argv = list(request.argv)
    start = time.perf_counter()
    code = main(argv) if tracer is None else tracer.request_span(main, argv)
    elapsed = time.perf_counter() - start
    problems = [f"exit code {code}"] if code != 0 else checks.check(request, docs)
    if tracer is not None and problems:
        tracer.counts["cli.failed"] += 1
    tally.add(" ".join(argv[:5]), problems)
    return elapsed


def set_up(workload: str, qf, workdir: Path, tally: Tally):
    """Write the workload's input documents and warm up every request class."""
    docs = None
    if workload == "query":
        for name, argv in workloads.QUERY_DOCUMENTS.items():
            code = qf.cli.main(argv + ["--out", str(workdir / f"{name}.json")])
            if code != 0:
                sys.exit(f"benchmark: writing the {name} document exited {code}")
        docs = workloads.load_documents(workdir)
    for request in workloads.warmup_requests(workload, workdir, docs):
        run_request(qf.cli.main, request, docs, tally)
    return docs


def serve(qf, workload, seed, seconds, workdir, docs, tally, cal, tracer=None, min_requests=0):
    """Closed loop: send the seeded stream until `seconds` have passed
    and at least `min_requests` requests have completed.

    Returns the wall time of each request and the calibration samples
    taken in the gaps before, between and after them."""
    latencies = []
    gaps = [cal.sample()]
    stream = workloads.stream(workload, seed, workdir, docs)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(latencies) < min_requests:
        latencies.append(run_request(qf.cli.main, next(stream), docs, tally, tracer))
        gaps.append(cal.sample())
    return latencies, gaps


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of a fresh benchmark process for the same workload."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "0", "--trace", "0", "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"benchmark: set-up process failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(latencies, setups) -> dict[str, float]:
    """End-to-end metrics from request latencies and set-up times, in seconds."""
    return {
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1000,
        "throughput_rps": len(latencies) / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }


def per_layer(tracer, untraced, traced) -> dict[str, float]:
    times, counts = tracer.self_times(), tracer.counts

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    out = {name: times.get(name[:-2], 0.0) for name in PER_LAYER if name.endswith("_s")}
    out["cli.self_s"] = times.get("cli", 0.0)
    out["cli.request_s"] = sum(end - start for name, start, end, _, _ in tracer.spans if name == "cli")
    out["cli.requests"] = len(traced)
    out["cli.failed"] = counts["cli.failed"]
    for key in ("geometry.ids_through.calls", "geometry.covers.calls", "unionfind.union.calls"):
        out[key] = counts[key]
    out["geometry.ids_through.hits_per_call"] = ratio("geometry.ids_through.hits", "geometry.ids_through.calls")
    out["unionfind.union.useful_ratio"] = ratio("unionfind.union.hits", "unionfind.union.calls")
    out["cantor.dedup_ratio"] = ratio("cantor.segments", "cantor.generated")
    out["spatial.dedup_ratio"] = ratio("spatial.skeleton", "spatial.generated")
    for key in ("cantor.cells", "cantor.segments", "spatial.pieces", "planar.kept", "planar.removed",
                "document.bytes_out", "document.bytes_in", "render.bytes_out", "topology.windings"):
        out[key] = counts[key]
    out["trace.overhead_ratio"] = (len(untraced) / sum(untraced)) / (len(traced) / sum(traced))
    return {name: out[name] for name in PER_LAYER}


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "quasifractal").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {units[name]}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    qf = import_program()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        tally = Tally()
        docs = set_up(args.workload, qf, workdir, tally)
        own_setup = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        cal = calibration.Calibration()
        record = {"workload": args.workload, "trace": args.trace, "environment": environment(args.seed)}
        if args.trace == 0:
            walls, gaps = serve(qf, args.workload, args.seed, args.seconds, workdir, docs, tally, cal,
                                min_requests=MIN_REQUESTS)
            latencies = calibration.adjust(walls, gaps)
            setups = [own_setup] + [setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
            metrics = end_to_end(latencies, setups)
            wall_metrics = end_to_end(walls, setups)
            units = END_TO_END
            record.update(requests=len(latencies), latencies_s=latencies, setup_samples_s=setups,
                          wall_metrics=wall_metrics, wall_latencies_s=walls,
                          calibration_ms=statistics.median(x for gap in gaps for x in gap) * 1000)
        else:
            import probe
            from tracer import Tracer

            half = args.seconds / 2
            untraced = calibration.adjust(*serve(qf, args.workload, args.seed, half, workdir, docs, tally, cal))
            tracer = Tracer()
            tracer.install(qf)
            try:
                traced = calibration.adjust(*serve(qf, args.workload, args.seed, half, workdir, docs, tally, cal, tracer))
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, untraced, traced)
            units = PER_LAYER
            total = metrics["cli.request_s"]
            record.update(requests=len(untraced) + len(traced), self_time_share={
                name: seconds / total for name, seconds in sorted(tracer.self_times().items(), key=lambda kv: -kv[1])
            })
            record["probe"] = probe.run(args.workload, qf)
        for name, problems in guard.verify(qf.cli.main, workdir).items():
            tally.add(f"byte-identity {name}", problems)
        record.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems, metrics=metrics)
        RESULTS.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            tracer.write(RESULTS / f"{stem}-spans.jsonl")
        (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
              f"{record['requests']} timed requests, {tally.attempted} operations, {tally.failed} failed")
        for problem in tally.problems:
            print(f"  FAILED {problem}")
        _print_metrics(metrics, units)
        if args.trace == 0:
            print(f"  {'failed_ratio':<38} {tally.failed / tally.attempted:>14.6g} 1")
            print(f"  wall time, before rescaling (calibration kernel {record['calibration_ms']:.3f} ms, "
                  f"reference {calibration.REFERENCE_MS} ms):")
            _print_metrics({f"wall.{name}": value for name, value in wall_metrics.items()
                            if name not in ("peak_rss_mb", "setup_s")},
                           {f"wall.{name}": unit for name, unit in END_TO_END.items()})
        else:
            print("  self-time share of request time:")
            for name, share in record["self_time_share"].items():
                print(f"    {name:<36} {share:>8.1%}")
            for label, got in record["probe"].items():
                print(f"  probe {label:<42} {got['seconds']:>8.2f} s (ROADMAP {got['roadmap_seconds']:.2f} s)")
        print(f"  environment {json.dumps(record['environment'])}")
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
