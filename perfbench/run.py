"""csslab benchmark: runs one workload through the csslab CLI verbs,
in-process, checks every output and prints its metrics.

    python3 perfbench/run.py --workload s_track --seed 1 --seconds 20 --trace 0

Run from anywhere; the csslab sources are taken from src/ next to this
directory. The workload repeats until --seconds have passed (at least
once). Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones, measured through wrappers around the
csslab functions listed in spans.py.

Set-up (importing csslab and building the grids, T-tables and
orthogonality profiles the workload needs) is timed in this process and
in SETUP_PROBES fresh interpreters that run `run.py --setup-probe`;
setup_s is the median. Outputs go to a temporary directory under
.bench_tmp/ in the checkout, removed before exit.

With --trace 0 the set-ups and repetitions are timed with a HostClock
(hostclock.py): wall_s and setup_s are in seconds at the nominal host
speed, and the raw wall-clock figures are printed above the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
SETUP_PROBES = 4
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("s_track", "monitor_dense", "stored_fields")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mib", "param_err_max")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: reduced inputs for the harness self-test")
    p.add_argument("--spans", default=None,
                   help="with --trace 1, write the spans as JSON lines here")
    p.add_argument("--setup-probe", action="store_true",
                   help="time the set-up alone and print the seconds")
    return p.parse_args(argv)


def limit_threads() -> int:
    """Cap the BLAS/OpenMP pools at the number of processors."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, nproc))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))
    return int(os.environ[THREAD_VARS[0]])


def timed_setup(name: str, size: str, clock):
    """Import csslab (numpy, scipy, click with it) and run the workload's
    one-off builds; returns (workload, (raw s, normalised s))."""
    mark = clock.mark()
    import csslab.cli  # noqa: F401
    import workloads
    wl = workloads.make(name, size)
    wl.setup()
    return wl, clock.since(mark)[:2]


def probe_setup(args) -> tuple[float, float]:
    """(raw s, normalised s) of a set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--size", args.size]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    raw, norm = out.stdout.split()[-2:]
    return float(raw), float(norm)


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy
    from importlib.metadata import version
    return {"nproc": os.cpu_count(),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "click": version("click"),
            "blas_threads": blas_threads}


def digest(outdir: Path) -> tuple[str, dict, int]:
    """(combined sha256, per-file sha256, bytes written) over the data
    files of a repetition; manifest.json is excluded from the digests
    because it records wall time."""
    per_file, total = {}, 0
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        if path.name != "manifest.json":
            per_file[str(path.relative_to(outdir))] = \
                hashlib.sha256(data).hexdigest()
    combined = hashlib.sha256("".join(
        f"{k}\0{v}\n" for k, v in per_file.items()).encode()).hexdigest()
    return combined, per_file, total


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "csslab" / "__init__.py").is_file():
        print(f"run.py: no csslab sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = limit_threads()
    sys.path.insert(0, str(SRC))
    # on SIGTERM, unwind through the finally blocks that remove .bench_tmp
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import hostclock
    clock = hostclock.HostClock()
    if not args.trace:
        clock.start()
    try:
        wl, setup_here = timed_setup(args.workload, args.size, clock)
    finally:
        clock.stop()
    if args.setup_probe:
        print(repr(setup_here[0]), repr(setup_here[1]))
        return 0
    setup = [setup_here]
    if not args.trace:
        setup += [probe_setup(args) for _ in range(SETUP_PROBES)]

    import spans as SP
    import workloads

    env = environment(blas_threads)
    print("# " + json.dumps(env))
    print(f"# workload {args.workload} ({args.size}): "
          f"{workloads.WHY[args.workload]}")

    work = TMP / f"{args.workload}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    tap = workloads.DecompositionTap()
    tracer = SP.Tracer() if args.trace else None
    per_span = SP.span_overhead_s() if tracer else 0.0
    walls, figures, layer_reps, digests = [], [], [], []
    refs = []
    attempted = failed = 0
    cwd = os.getcwd()
    try:
        wl.make_inputs(args.seed, inputs)
        for truth in wl.inputs:
            print("# input " + json.dumps(
                {k: v for k, v in truth.items() if k != "path"}))
        tap.install()
        if tracer:
            tracer.install()
        else:
            clock.start()
        start = time.perf_counter()
        rep = 0
        while True:
            outdir = work / f"rep{rep}"
            outdir.mkdir()
            os.environ["CSSLAB_OUTPUT_ROOT"] = str(outdir)
            os.chdir(outdir)
            n_dec = len(tap.records)
            first = len(tracer.spans) if tracer else 0
            if tracer:
                tracer.run_id = rep
            mark = clock.mark()
            try:
                ops = wl.body()
            finally:
                wall, wall_norm, ref = clock.since(mark)
                os.chdir(cwd)
            decomps = tap.records[n_dec:]
            res = wl.check(ops, decomps, outdir)
            combined, per_file, nbytes = digest(outdir)
            shutil.rmtree(outdir)
            attempted += res.attempted
            failed += res.failed
            for err in res.errors:
                print(f"FAILED rep {rep}: {err}", file=sys.stderr)
            walls.append((wall, wall_norm))
            refs.append(ref)
            figures.append(res.figures)
            digests.append((combined, per_file))
            print(f"# rep {rep}: {wall:.4f} s ({wall_norm:.4f} s at nominal "
                  f"host speed), {res.attempted - res.failed}"
                  f"/{res.attempted} ok, data sha256 {combined[:16]} over "
                  f"{len(per_file)} files, {nbytes} bytes")
            if tracer:
                extra = {"evolve.track_err_l2":
                         res.figures.get("track_err_l2", 0.0),
                         "evolve.mass_drift":
                         res.figures.get("mass_drift", 0.0),
                         "cli.bytes_written": nbytes}
                layer_reps.append(SP.rep_metrics(
                    tracer.spans, first, wall, per_span, decomps, extra))
            rep += 1
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        clock.stop()
        os.chdir(cwd)
        if tracer:
            tracer.uninstall()
        tap.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            TMP.rmdir()  # only when no other run is using it
        except OSError:
            pass

    deterministic = all(d == digests[0] for d in digests)
    for name, h in digests[0][1].items():
        if any(d[1].get(name) != h for d in digests[1:]):
            print(f"NOT DETERMINISTIC: {name} differs between repetitions",
                  file=sys.stderr)
    if tracer and args.spans:
        tracer.dump(args.spans)

    report = [
        ("setup_s", statistics.median(s[1] for s in setup), "s"),
        ("wall_s", statistics.median(w[1] for w in walls), "s"),
        ("raw_setup_s", statistics.median(s[0] for s in setup), "s"),
        ("raw_wall_s", statistics.median(w[0] for w in walls), "s"),
        ("host_ref_us", 1e6 * statistics.median(refs), "us"),
        ("peak_rss_mib",
         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        ("failed_frac", failed / attempted, "ratio"),
        ("param_err_max", max(f["param_err_max"] for f in figures), "ratio"),
    ]
    for key in ("track_err_l2", "mass_drift"):
        vals = [f[key] for f in figures if key in f]
        report.append((key, max(vals) if vals else None, "ratio"))
    print(f"# {len(walls)} repetition(s), {attempted} operations, {failed} "
          f"failed, data files {'identical' if deterministic else 'DIFFER'} "
          f"across repetitions{'; traced' if tracer else ''}")
    print(f"# data sha256 {digests[0][0]} over {len(digests[0][1])} files")
    for name, value, unit in report:
        shown = "n/a (no PDE run)" if value is None else f"{value:.6g} {unit}"
        print(f"{name:>14} {shown}")

    if tracer:
        metrics = {name: {"value": statistics.median(r[name]
                                                     for r in layer_reps),
                          "unit": unit}
                   for name, unit in SP.metric_units().items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in report if name in END_TO_END}
    print(json.dumps({"correct": failed == 0 and deterministic,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
