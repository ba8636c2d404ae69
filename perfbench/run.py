"""The repository benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload cor36-dense --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
The run sets up the workload's inputs from ``--seed``, runs one untimed
warm-up op, then loops over the inputs in whole cycles for about
``--seconds`` seconds, alternating the order of the op variants each cycle:

* ``--trace 0`` -- each op plain and inside ``repro.obs.capture()``; prints
  the end-to-end metrics.
* ``--trace 1`` -- each op plain, traced (benchmark-side spans around every
  layer call) and captured; prints the per-layer metrics and writes the
  spans to ``.perfbench-out/trace-<workload>-s<seed>.json``.

The end-to-end times are scaled to a nominal host speed with a reference
kernel timed before each op and set-up step (``hostspeed.py``); the
per-layer times are as measured.  The process re-executes itself first
with glibc's malloc thresholds fixed (see :func:`pin_allocator`).

Every op's output is checked outside its timed window; an exception, a
failed job or a failed check counts the op as failed.  The last line of
standard output is the JSON result; details (sample counts, raw and scaled
op times, reference samples, digests, failures) go to standard error.
Without a ``src/repro`` tree or without NumPy the run exits with status 2
and prints no result.  Every process the run starts has ended when it exits.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

END_TO_END = {"setup_s": "s", "op_s.p50": "s", "op_obs_s.p50": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "graphgen.build_s": "s",
    "runtime.from_static_s": "s",
    "runtime.self_s": "s",
    "linial.busy_s": "s",
    "linial.rounds": "count",
    "linial.active_frac": "ratio",
    "core.ag.busy_s": "s",
    "core.ag.rounds": "count",
    "core.ag.active_frac": "ratio",
    "core.reduction.busy_s": "s",
    "core.reduction.rounds": "count",
    "core.reduction.active_frac": "ratio",
    "oocore.write_s": "s",
    "oocore.open_s": "s",
    "oocore.disk_mb": "MiB",
    "oocore.halo_slots": "count",
    "oocore.rss_over_budget": "ratio",
    "selfstab.cold_s": "s",
    "selfstab.cold_rounds": "count",
    "selfstab.recover_rounds": "count",
    "selfstab.round_ms": "ms",
    "selfstab.touched_frac": "ratio",
    "parallel.busy_s": "s",
    "parallel.utilization": "ratio",
    "parallel.imbalance": "ratio",
    "parallel.parent_builds": "count",
    "parallel.retries": "count",
    "obs.overhead": "ratio",
    "trace.cost_s": "s",
    "host.reference_ms": "ms",
}


#: glibc malloc thresholds for the run, fixed so the allocator behaves the
#: same from the first op to the last.
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=268435456"


def die(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def pin_allocator():
    """Re-execute this process with glibc's malloc thresholds fixed.

    By default glibc serves every array above 128 KiB with a fresh ``mmap``,
    faulting its pages in again on each op, until some ``free`` raises the
    threshold -- after a number of ops that differs from run to run.  On
    selfstab-burst that moved the op from 1.35 s (225 000 page faults) to
    0.83 s (none) in the middle of a run.  Fixed thresholds keep every run
    in the second state from its first op; the program's code is unchanged.
    """
    if os.environ.get("GLIBC_TUNABLES") != MALLOC_TUNABLES:
        os.environ["GLIBC_TUNABLES"] = MALLOC_TUNABLES
        os.execv(sys.executable, [sys.executable] + sys.argv)


def import_seconds(speed, runs=9):
    """Median time a fresh interpreter takes to import the package, scaled
    by ``speed`` (a :class:`~hostspeed.HostSpeed`)."""
    code = "import time; t = time.perf_counter(); import repro.api; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(runs):
        speed.sample()
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            die("importing the package failed: %s" % proc.stderr.strip()[-300:])
        times.append(speed.scale(float(proc.stdout)))
    return statistics.median(times)


def bootstrap():
    """Import ``repro`` from this checkout's ``src/`` with NumPy on one thread."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        die("no package source at %s; run from the root of a repository checkout" % src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    try:
        import numpy  # noqa: F401
    except ImportError:
        die("NumPy is not installed; every workload runs the batch or out-of-core tier, which need it")
    import repro
    from repro.runtime.csr import numpy_available

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        die("imported repro from %s, not from %s" % (repro.__file__, src))
    if not numpy_available():
        die("NumPy is disabled (REPRO_DISABLE_NUMPY); every workload needs the batch or out-of-core tier")


@contextlib.contextmanager
def scratch_dir():
    """Send every temporary file, the program's shards included, to a
    directory of the checkout that is removed afterwards."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    saved = {key: os.environ.get(key) for key in ("TMPDIR", "REPRO_OOCORE_DIR")}
    os.environ["TMPDIR"] = scratch
    os.environ["REPRO_OOCORE_DIR"] = os.path.join(scratch, "oocore")
    tempfile.tempdir = scratch
    try:
        yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        tempfile.tempdir = None
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def reset_peak_rss():
    """Restart the kernel's peak-RSS counter (VmHWM) at the current RSS."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError as exc:
        print("perfbench: cannot reset peak RSS (%s); peak_rss_mb includes set-up" % exc, file=sys.stderr)
        return False


def peak_rss_mb():
    """This process's VmHWM in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop_children(grace_s=10.0):
    """Stop every process the run started and wait for each to end.

    Pool workers are joined by the program itself; this terminates any left
    alive, stops the shared-memory resource tracker that ``multiprocessing``
    starts on first use (it would otherwise exit only after this process,
    unwaited), then reaps every child that has ended.
    """
    if "multiprocessing" in sys.modules:
        import multiprocessing
        from multiprocessing import resource_tracker

        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                die("a child process is still running at the end of the run")
            time.sleep(0.05)


def run_workload(workload, seconds, trace, import_s=0.0, trace_path=None, speed=None):
    """Set up, warm up, measure and check one workload.

    ``import_s`` is the package's import time, already scaled by ``speed``
    (a :class:`~hostspeed.HostSpeed`).  Returns ``(result, details)``: the
    JSON result object and a dict with every op's time (per variant, as
    measured and as scaled), every op's digest and the failures.
    """
    from checks import CheckFailed
    from hostspeed import HostSpeed
    from repro import obs
    from tracing import GenerationCounter, Tracer, layer_metrics, median

    speed = speed or HostSpeed()
    variants = ("plain", "traced", "obs") if trace else ("plain", "obs")
    times = {variant: [] for variant in variants}
    scaled = {variant: [] for variant in variants}
    details = {"digests": [], "failures": []}
    tally = {"attempted": 0, "failed": 0}
    ok_inputs = []
    reference = {}
    counter = GenerationCounter()
    tracer = Tracer()
    counter.install()
    if trace:
        tracer.install()

    def attempt(i, variant):
        """Run, time and check one op; returns its seconds, None if it failed."""
        tally["attempted"] += 1
        workload.prepare(i)
        speed.sample()
        generated = counter.count
        try:
            start = time.perf_counter()
            if variant == "obs":
                with obs.capture():
                    output = workload.op(i)
            elif variant == "traced":
                tracer.op_id = tally["attempted"]
                tracer.on = True
                try:
                    with tracer.span("op", input=i):
                        output = workload.op(i)
                finally:
                    tracer.on = False
            else:
                output = workload.op(i)
            seconds = time.perf_counter() - start
            if counter.count != generated and not workload.cold_ops:
                raise CheckFailed("an input was generated inside a timed op")
            result = workload.check(i, output, variant, seconds)
            if workload.repeatable and reference.setdefault(i, result) != result:
                raise CheckFailed("digest %s differs from the input's first op (%s)" % (result, reference[i]))
        except Exception as exc:  # any failure of the op or its check counts
            tally["failed"] += 1
            details["failures"].append("input %d %s: %s: %s" % (i, variant, type(exc).__name__, exc))
            return None
        details["digests"].append((i, variant, result))
        ok_inputs.append(i)
        return seconds

    try:
        tracer.on = bool(trace)
        setups = []
        for i in range(workload.inputs):
            speed.sample()
            start = time.perf_counter()
            workload.setup_input(i)
            setups.append(speed.scale(time.perf_counter() - start))
        tracer.on = False
        workload.prepare_checks()
        # One untimed op first: lazy imports and plan caches fill here.
        attempt(0, "plain")

        gc.collect()
        reset_peak_rss()
        deadline = time.perf_counter() + seconds
        cycle = 0
        # Whole cycles over the inputs, so each input weighs the same.
        while cycle < workload.inputs or cycle % workload.inputs or time.perf_counter() < deadline:
            order = variants if cycle % 2 == 0 else variants[::-1]
            for variant in order:
                elapsed = attempt(cycle % workload.inputs, variant)
                if elapsed is not None:
                    times[variant].append(elapsed)
                    scaled[variant].append(speed.scale(elapsed))
            cycle += 1
        peak = peak_rss_mb()
        if workload.cold_ops:
            # Pool workers have been joined: add the largest one's peak.
            peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        # A deferred check that rejects an input fails every op that
        # produced its (shared) output.
        for i, reason in sorted(workload.finish(dict(reference)).items()):
            lost = ok_inputs.count(i)
            tally["failed"] += lost
            details["failures"].append("input %d (%d ops): %s" % (i, lost, reason))
        counts = workload.layer_counts(peak)
    finally:
        tracer.uninstall()
        counter.uninstall()
        workload.close()

    details["op_seconds"] = times
    details["op_scaled_seconds"] = scaled
    details["reference_seconds"] = speed.samples

    if trace:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(layer_metrics(tracer))
        values.update(counts)
        values["host.reference_ms"] = 1000.0 * median(speed.samples)
        plain = median(times["plain"])
        if plain:
            values["obs.overhead"] = median(times["obs"]) / plain
            values["trace.cost_s"] = median(times["traced"]) - plain
        units = PER_LAYER
        if trace_path:
            tracer.write(trace_path, START)
    else:
        values = {
            "setup_s": import_s + median(setups),
            "op_s.p50": median(scaled["plain"]),
            "op_obs_s.p50": median(scaled["obs"]),
            "peak_rss_mb": peak,
        }
        units = END_TO_END
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_allocator()
    bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        die("unknown workload %r (known: %s)" % (args.workload, ", ".join(sorted(WORKLOADS))))
    from hostspeed import HostSpeed

    speed = HostSpeed()
    import_s = import_seconds(speed)

    try:
        with scratch_dir():
            workload = WORKLOADS[args.workload](args.seed)
            trace_path = os.path.join(OUT_DIR, "trace-%s-s%d.json" % (args.workload, args.seed)) if args.trace else None
            result, details = run_workload(workload, args.seconds, args.trace, import_s, trace_path, speed)
    finally:
        stop_children()
    print(json.dumps({k: v for k, v in details.items() if k != "digests"}), file=sys.stderr)
    print("digests: %s" % json.dumps(details["digests"]), file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
