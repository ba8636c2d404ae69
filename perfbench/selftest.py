"""Smoke test of the benchmark itself, on smoke-sized inputs.

    python3 perfbench/selftest.py

Checks that:

* every workload in BENCHMARK.json exists, and every workload (the ungated
  ``cor36-dense`` included) emits exactly the metrics BENCHMARK.json names
  -- the end-to-end ones untraced, the per-layer ones traced -- with every
  op correct;
* a seed's outputs repeat across runs, and traced outputs equal untraced ones;
* a deliberately corrupted colouring is counted as a failed op;
* ``run.py`` exits non-zero with a message and no result when NumPy is
  disabled, and when the package source is missing.

Exits 0 when all hold; takes about a minute on 2 CPUs.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run as runner

SMOKE = {
    "cor36-dense": {"n": 400, "degree": 8},
    "oocore-sparse": {"n": 3000, "degree": 4},
    "selfstab-burst": {"n": 300, "degree": 6},
    "sweep-mixed": {"n": 300, "degree": 6},
}
RUN = os.path.join(runner.HERE, "run.py")


def expect(condition, message):
    if not condition:
        raise SystemExit("selftest FAILED: %s" % message)


def by_input(digests):
    """Each input's digest sequence, in op order."""
    out = {}
    for i, _variant, value in digests:
        out.setdefault(i, []).append(value)
    return out


def same_prefix(a, b):
    """Per input, the shorter digest sequence starts the longer one."""
    return set(a) == set(b) and all(a[i][:len(b[i])] == b[i][:len(a[i])] for i in a)


def check_workloads(bench):
    from workloads import WORKLOADS

    expect({w["name"] for w in bench["workloads"]} <= set(WORKLOADS), "BENCHMARK.json names a workload workloads.py lacks")
    wanted = {False: {m["name"] for m in bench["end_to_end"]}, True: {m["name"] for m in bench["per_layer"]}}
    for name, cls in sorted(WORKLOADS.items()):
        runs = []
        for trace in (False, False, True):
            result, details = runner.run_workload(cls(1, **SMOKE[name]), 0.2, trace)
            expect(result["correct"] and result["failed"] == 0, "%s: %s" % (name, details["failures"]))
            expect(set(result["metrics"]) == wanted[trace], "%s emits %s" % (name, sorted(result["metrics"])))
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()), "%s: a non-number metric" % name)
            runs.append(by_input(details["digests"]))
        expect(same_prefix(runs[0], runs[1]), "%s: outputs differ between two runs of one seed" % name)
        expect(same_prefix(runs[0], runs[2]), "%s: traced outputs differ from untraced ones" % name)
        print("ok  %s" % name)


def check_corruption():
    from workloads import Cor36Dense

    class Corrupted(Cor36Dense):
        done = False

        def op(self, i):
            outcome = super().op(i)
            if not self.done:
                colors = outcome.summary["payload"]["colors"]
                csr = self.graphs[i].csr()
                colors[int(csr.edge_u[0])] = colors[int(csr.edge_v[0])]
                self.done = True
            return outcome

    result, _ = runner.run_workload(Corrupted(1, **SMOKE["cor36-dense"]), 0.2, False)
    expect(result["failed"] == 1 and not result["correct"], "a corrupted colouring was not counted: %s" % result)
    print("ok  corrupted colouring counted as failed")


def check_refusals():
    args = ["--workload", "cor36-dense", "--seed", "1", "--seconds", "1"]
    env = dict(os.environ, REPRO_DISABLE_NUMPY="1")
    proc = subprocess.run([sys.executable, RUN] + args, env=env, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and "NumPy" in proc.stderr and not proc.stdout.strip(), "no-NumPy run: %r" % (proc,))
    bare = tempfile.mkdtemp(prefix="bare-", dir=runner.OUT_DIR)
    try:
        shutil.copy(os.path.join(runner.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(runner.HERE, os.path.join(bare, "perfbench"))
        proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "run without the package source: %r" % (proc,))
    print("ok  refuses to run without NumPy or without the package source")


def main():
    runner.bootstrap()
    with open(os.path.join(runner.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    with runner.scratch_dir():
        check_workloads(bench)
        check_corruption()
    check_refusals()
    print("selftest passed")


if __name__ == "__main__":
    main()
