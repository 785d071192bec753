"""fairfront benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Sets up the workload's inputs from the
seed, then for S seconds runs its ``fairfront`` subcommand again and again,
one process at a time (closed loop), checking every run's outputs.  With
``--trace 0`` it reports the end-to-end metrics: medians of run time and
peak memory over the runs, the median of several set-ups, and the quality
values of the outputs.  Times are scaled to the reference speed of the
probe (see ``Probe``).  With ``--trace 1`` it alternates untraced runs with
runs under perfbench/traced_cli.py and reports the per-layer metrics of
perfbench/tracer.py, medians over the traced runs, plus the tracing
overhead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYER_METRICS, layer_metrics, median_metrics, now
from workloads import WORKLOADS, CheckFailed, Inputs, digest, check, setup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = (3, 15)  # set up at least 3 times, more while under SETUP_BUDGET_S
SETUP_BUDGET_S = 2.0
# (name, unit) of the end-to-end metrics; the last three come from check()
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("w1_ratio", "ratio"),
    ("ce_ratio", "ratio"),
    ("base_test_ce", "nats"),
]
RUN_TIMEOUT_S = 120
# On the shared 2-core machine the benchmark was tuned on, every process
# slowed alike by up to 70% for minutes at a time, far beyond the bounds in
# BENCHMARK.json.  A fixed probe timed by this process between runs slowed
# with them (correlation 0.94 over one-minute buckets), so set-up and run
# times are reported at the speed at which the probe takes PROBE_REF_S,
# about its median there when the machine was quiet.
PROBE_REF_S = 0.11
PROBE_LOOP = 1_000_000   # interpreter iterations
PROBE_SORT = 1_000_000   # float64 values sorted three times
THREADS = 1  # BLAS/OpenMP threads and fairfront evaluation workers, <= nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "FAIRFRONT_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    # glibc moves its mmap threshold as large blocks are freed, which left
    # the peak RSS of one input at either of two values (238 or 266 MB) from
    # run to run; pinning the threshold at its default start makes it one
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def _timeout(signum, frame):
    raise TimeoutError


def spawn(cmd, log: Path):
    """Run ``cmd`` to completion; returns (launch time, wall seconds, peak
    RSS in MB, exit code).  wait4 gives the peak of this child alone."""
    previous = signal.signal(signal.SIGALRM, _timeout)
    with open(log, "w") as fh:
        launched = now()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        signal.alarm(RUN_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = now() - launched
    proc.returncode = os.waitstatus_to_exitcode(status)
    return launched, elapsed, usage.ru_maxrss / 1024.0, proc.returncode


class Probe:
    """Times a fixed piece of work in this process, between the workload's
    set-ups and runs: an interpreter loop and numpy sorts, the two kinds of
    work every workload does."""

    def __init__(self):
        import numpy

        self.numpy = numpy
        self.data = numpy.random.default_rng(0).random(PROBE_SORT)
        self.samples = []

    def __call__(self):
        start = now()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i
        for _ in range(3):
            self.numpy.sort(self.data)
        self.samples.append(now() - start)

    def at_reference_speed(self, seconds: float) -> float:
        """``seconds`` measured during this benchmark run, scaled to the
        speed at which the probe takes PROBE_REF_S."""
        return seconds * PROBE_REF_S / statistics.median(self.samples)


@dataclass
class Run:
    """One repetition of the workload's subcommand."""

    index: int
    traced: bool
    seconds: float = None
    rss_mb: float = None
    layers: dict = None    # per-layer metrics, traced runs only
    values: dict = None    # quality values from check()
    hashes: dict = None
    error: str = None      # why the run counts as failed


def run_once(workload, inputs, work: Path, index: int, traced: bool) -> Run:
    rep = Run(index, traced)
    out = work / f"run{index}"
    argv = inputs.argv(workload, out)
    spans = work / f"spans{index}.json"
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans)] + argv
    else:
        cmd = [sys.executable, "-m", "fairfront.cli"] + argv
    log = work / f"run{index}.log"
    launched, rep.seconds, rep.rss_mb, code = spawn(cmd, log)
    try:
        require_code(code, log)
        rep.values = check(workload, inputs, out)
        rep.hashes = {name: digest(out / name) for name in workload.artifacts}
        if traced:
            doc = json.loads(spans.read_text())
            rep.layers = layer_metrics(doc["spans"], launched, doc["finished"])
    except CheckFailed as exc:
        rep.error = str(exc)
    except Exception as exc:  # unreadable output: this run failed, the benchmark goes on
        rep.error = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(out, ignore_errors=True)
    spans.unlink(missing_ok=True)
    return rep


def require_code(code, log: Path):
    if code != 0:
        tail = log.read_text()[-400:].strip().replace("\n", " | ")
        raise CheckFailed(f"exit code {code}: {tail}")


def measure(workload, inputs, work: Path, seconds: float, trace: bool, probe: Probe) -> list:
    """Closed loop for ``seconds``: a run starts only when the previous one
    has ended, and only if it is expected to end inside the window, except
    that at least one run of each needed kind (untraced, traced) is made.
    The probe is timed before each run and after the last."""
    runs = []
    start = now()
    while True:
        probe()
        traced = trace and len(runs) % 2 == 1
        runs.append(run_once(workload, inputs, work, len(runs), traced))
        kinds_done = {r.traced for r in runs} >= ({False, True} if trace else {False})
        longest = max(r.seconds for r in runs)
        if kinds_done and now() - start + longest > seconds:
            probe()
            return runs


def mark_differing(runs):
    """Fail the runs whose artifact bytes differ from the first good run's."""
    good = [r for r in runs if r.error is None]
    for r in good[1:]:
        if r.hashes != good[0].hashes:
            r.error = f"artifacts differ from run {good[0].index}: {r.hashes} vs {good[0].hashes}"


def environment(seed) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def benchmark(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import fairfront.cli  # noqa: F401  (imported here so that no set-up is timed with it)

    inputs = Inputs(work / "inputs", seed)
    probe = Probe()
    setups, generates = [], []
    least, most = (1, 1) if trace else SETUP_REPEATS
    while len(setups) < least or (len(setups) < most and sum(setups) < SETUP_BUDGET_S):
        probe()
        start = now()
        generates.append(setup(workload, inputs, now))
        setups.append(now() - start)
    runs = measure(workload, inputs, work, seconds, trace, probe)
    mark_differing(runs)
    for r in runs:
        print(json.dumps({"run": r.index, "traced": r.traced, "seconds": round(r.seconds, 4),
                          "peak_rss_mb": round(r.rss_mb, 1), "hashes": r.hashes, "error": r.error}))
    print(json.dumps({"setups_s": [round(t, 4) for t in setups], "probe_s": [round(t, 4) for t in probe.samples],
                      "scale": round(probe.at_reference_speed(1.0), 4)}))
    good = [r for r in runs if r.error is None]
    result = {"correct": len(good) == len(runs), "attempted": len(runs), "failed": len(runs) - len(good)}
    plain = [r for r in good if not r.traced]
    traced = [r for r in good if r.traced]
    if not plain or (trace and not traced):
        raise SystemExit(f"perfbench: no successful {'traced ' if trace else ''}run of {workload.name}")
    if trace:
        layers = median_metrics([r.layers for r in traced])
        layers["data.generate.s"] = statistics.median(generates)
        layers["trace.untraced_run_s"] = statistics.median(r.seconds for r in plain)
        layers["trace.overhead"] = layers["trace.run_s"] / layers["trace.untraced_run_s"]
        layers["trace.probe_s"] = statistics.median(probe.samples)
        result["metrics"] = {name: {"value": layers[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        figures = dict(plain[0].values)
        figures["setup_s"] = probe.at_reference_speed(statistics.median(setups))
        figures["run_s"] = probe.at_reference_speed(statistics.median(r.seconds for r in plain))
        figures["peak_rss_mb"] = statistics.median(r.rss_mb for r in plain)
        result["metrics"] = {name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated runner unwinds, so spawn() kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fairfront" / "cli.py").is_file():
        print(f"perfbench: fairfront sources not found under {SRC}", file=sys.stderr)
        return 2
    # before numpy is first imported, here and in every child
    os.environ.update({var: str(THREADS) for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    print(json.dumps({"environment": environment(args.seed)}))
    print(json.dumps({"workload": workload.name, "flags": workload.argv}))
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = benchmark(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another benchmark run is still using it
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
