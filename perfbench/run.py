"""mathieu-kit benchmark: seeded workloads, end-to-end metrics and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload floquet_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One workload per process.  With --trace 0 the run is untraced and reports
the end-to-end metrics; with --trace 1 it installs timing wrappers around the
layer functions and reports per-layer metrics.  `--workload all` runs every
workload untraced and then traced, each in its own process, and prints the
tracing overhead.  The last line of standard output is always one JSON object
with the keys correct, attempted, failed and metrics; the metric names and
units, and each workload's `why`, are read from BENCHMARK.json.

End-to-end times are reported at reference host speed: each item's wall time
is scaled by REF_NOMINAL_S over the mean time of a fixed reference kernel run
just before it, just after it and every SAMPLE_INTERVAL_S during it (set-up
likewise).  The wall figures and the kernel's own time are printed alongside.

The program is imported from src/ next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set to one thread before numpy is first imported; child processes inherit it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The host's speed for one thread drifts by tens of per cent from minute to
# minute on a shared virtual machine.  A fixed kernel of small numpy operations
# and scalar complex arithmetic, the two kinds of work the program does, is
# timed between items; a time at reference speed is the wall time scaled by
# REF_NOMINAL_S over the kernel's time measured next to it.
REF_NOMINAL_S = 3.5e-3
REF_STEPS = 60
REF_ORDERS = 64
# while an untraced item or the set-up runs, a timer signal also runs the
# kernel this often, so that an item of several seconds is scaled by the host's
# speed over its whole length; the kernel's own time is taken off the item's
SAMPLE_INTERVAL_S = 0.2
# kernel runs that time the host right after set-up
SETUP_REF_RUNS = 5
# set-up is timed in this process and again in fresh child processes: four when
# set-up is short, two when a warm-up item alone takes seconds
SETUP_CHILDREN = (4, 2)
SHORT_SETUP_S = 1.0
CHILD_TIMEOUT_S = 150
# the p90 is printed once this many items leave 10 samples beyond it
P90_MIN_ITEMS = 100
# inputs are generated this many at a time, outside the timed region
INPUT_BLOCK = 64


@dataclass(frozen=True)
class Spec:
    """What BENCHMARK.json fixes: workload names and why, metric names and units."""

    why: dict
    end_to_end: dict
    per_layer: dict

    @classmethod
    def load(cls, path: Path = ROOT / "BENCHMARK.json") -> "Spec":
        doc = json.loads(path.read_text())
        return cls(why={w["name"]: w["why"] for w in doc["workloads"]},
                   end_to_end={m["name"]: m["unit"] for m in doc["end_to_end"]},
                   per_layer={m["name"]: m["unit"] for m in doc["per_layer"]})


def parse_args(argv, spec: Spec):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(spec.why) + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def provenance() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version, "git": git_revision()}


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_ref_s() -> float:
    """Wall time of one run of the fixed reference kernel.

    Two halves of about equal time: steps of small numpy operations, as in the
    program's integrators, and a scalar complex power series in plain Python,
    as in its Bessel sums.
    """
    import numpy as np

    t0 = time.perf_counter()
    y = np.array([1.0, 0.5])
    k = np.zeros((7, 2))
    a = np.array([[0.0, 1.0], [-2.0, -0.1]])
    for _ in range(REF_STEPS):
        for j in range(7):
            k[j] = a @ y
        y = y + 1e-3 * (k[0] + 2.0 * k[3] - k[6])
        float(np.max(np.abs(k[2] - k[5])))
    w = -(3.0 + 1.0j) ** 2 / 4.0
    for n in range(REF_ORDERS):
        term = total = 1.0 + 0.0j
        for m in range(1, 100):
            term *= w / (m * (m + n))
            total += term
    return time.perf_counter() - t0


class HostSampler:
    """Reference-kernel times, taken on request and, inside `during()`, by a timer signal.

    `spent` is the wall time the signalled kernel runs took, which the timed
    code around them did not spend on its own work.
    """

    def __init__(self, refs: list):
        self.refs = refs
        t0 = time.perf_counter()
        host_ref_s()  # untimed: numpy's first-call paths
        self.spent = time.perf_counter() - t0

    def sample(self) -> None:
        self.refs.append(host_ref_s())

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - t0

    @contextmanager
    def during(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def child_setup_times(args, count: int) -> list[tuple[float, float]]:
    """(reference-speed, wall) set-up times of `count` fresh processes, run in turn."""
    times = []
    for _ in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        scaled, wall = done.stdout.strip().splitlines()[-1].split()
        times.append((float(scaled), float(wall)))
    return times


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_one(args, spec: Spec, t_start: float) -> int:
    # set-up: program import, input generation, one untimed warm-up item
    sys.path.insert(0, str(SRC))
    import workloads

    import mathieu_kit
    if Path(mathieu_kit.__file__).resolve().parent != SRC / "mathieu_kit":
        print(f"error: imported mathieu_kit from {mathieu_kit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if w.name == "flux_demod":
        os.environ["MATHIEU_KIT_TOL"] = workloads.FLUX_TOL
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        host = HostSampler([])
        with host.during():
            pool = w.inputs(args.seed, 0, INPUT_BLOCK)
            warm = w.check(w.warmup, w.run(w.warmup, workdir), workdir)
        setup_wall = time.perf_counter() - t_start - host.spent
        for _ in range(SETUP_REF_RUNS):
            host.sample()
        setup = (setup_wall * REF_NOMINAL_S / statistics.mean(host.refs), setup_wall)
        if args.setup_probe:
            print(f"{setup[0]!r} {setup[1]!r}")
            return 0 if warm.ok else 1
        if not warm.ok:
            print(f"warm-up item failed its check: {warm.reason}", file=sys.stderr)
        return measure(args, spec, w, workloads, pool, workdir, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@dataclass
class ItemLog:
    """What the timed loop saw: one latency per item, failures, check figures."""

    latencies: list = field(default_factory=list)
    # reference kernel times in order, and the index of the one taken just
    # before each item (plus, at the end, of the one taken after the last)
    refs: list = field(default_factory=list)
    ref_bounds: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (item index, kind, reason)
    accuracy: list = field(default_factory=list)
    pending: list = field(default_factory=list)  # (item index, figures for the late check)
    output_bytes: int = 0
    skipped_class: int = 0

    def scaled_latencies(self) -> list[float]:
        """Item latencies at reference speed, each scaled by the kernel times before,
        during and after it."""
        b = self.ref_bounds
        return [dt * REF_NOMINAL_S / statistics.mean(self.refs[b[i]:b[i + 1] + 1])
                for i, dt in enumerate(self.latencies)]


def run_items(w, seed: int, pool: list, workdir: str, stop, tracer=None) -> ItemLog:
    """Run items in sequence order until stop(items done) says so.

    Only the item itself is timed (and, when traced, recorded); its check runs
    afterwards.  The reference kernel runs between items and, when untraced,
    during them (a traced run would file its time under the program's spans).
    An item that raises counts as failed with its exception class.
    """
    log = ItemLog()
    host = HostSampler(log.refs)
    i = 0
    while not stop(i):
        if i == len(pool):
            pool += w.inputs(seed, i, INPUT_BLOCK)
        inp = pool[i]
        outcome = error = None
        log.ref_bounds.append(len(log.refs))
        host.sample()
        if tracer:
            tracer.recording = True
        spent = host.spent
        t0 = time.perf_counter()
        try:
            if tracer:
                out = w.run(inp, workdir)
            else:
                with host.during():
                    out = w.run(inp, workdir)
        except Exception as exc:  # an item that raises is counted, not fatal
            error = exc
        dt = time.perf_counter() - t0 - (host.spent - spent)
        if tracer:
            tracer.recording = False
        log.latencies.append(dt)
        if error is None:
            try:
                outcome = w.check(inp, out, workdir)
            except Exception as exc:
                error = exc
        if error is not None:
            log.failures.append((i, type(error).__name__, str(error)[:200]))
        else:
            log.output_bytes += outcome.output_bytes
            if not outcome.ok:
                log.failures.append((i, "check", outcome.reason))
            else:
                if outcome.accuracy is not None:
                    log.accuracy.append(outcome.accuracy)
                if outcome.pending is not None:
                    log.pending.append((i, outcome.pending))
                log.skipped_class += outcome.skipped_class
        i += 1
    log.ref_bounds.append(len(log.refs))
    host.sample()
    return log


def late_checks(w, log: ItemLog) -> None:
    """The workload's late check on every item that has one pending."""
    for idx, pending in log.pending:
        try:
            outcome = w.late_check(pending)
        except Exception as exc:
            log.failures.append((idx, type(exc).__name__, str(exc)[:200]))
            continue
        if not outcome.ok:
            log.failures.append((idx, "check", outcome.reason))
        log.skipped_class += outcome.skipped_class


def measure(args, spec: Spec, w, workloads, pool, workdir, setup) -> int:
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        target = max(1, round(w.traced_items_per_s * args.seconds))
        stop = lambda done: done >= target
    else:
        children = SETUP_CHILDREN[0] if setup[1] < SHORT_SETUP_S else SETUP_CHILDREN[1]
        setups = [setup] + child_setup_times(args, children)

    if tracer:
        with tracer.installed():
            log = run_items(w, args.seed, pool, workdir, stop, tracer)
    else:
        deadline = time.perf_counter() + args.seconds
        log = run_items(w, args.seed, pool, workdir,
                        lambda done: done > 0 and time.perf_counter() >= deadline)
    # read before the late checks and the provenance import scipy, which the
    # program does not use
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    late_checks(w, log)
    latencies, failures, accuracy = log.latencies, log.failures, log.accuracy
    scaled = log.scaled_latencies()
    ref_ms = 1e3 * statistics.median(log.refs)

    attempted = len(latencies)
    passed = attempted - len(failures)
    print(f"provenance: {json.dumps(provenance(), sort_keys=True)}")
    print(f"workload {w.name} (seed {args.seed}, {'traced' if tracer else 'untraced'})")
    print(f"  {spec.why[w.name]}")
    for idx, kind, reason in sorted(failures):
        print(f"  FAILED item {idx}: {kind}: {reason}")
    print(f"  failed_frac {len(failures) / attempted:.4g} ({len(failures)}/{attempted})")
    if accuracy:
        print(f"  {w.accuracy_label} {max(accuracy):.3g} (information, not gated)")
    if w.late_check is not None:
        if workloads.scipy_special() is None:
            print("  scipy is absent: stability classes were not checked")
        else:
            print(f"  stability class agreed with scipy tongues on "
                  f"{passed - log.skipped_class}/{passed} passing items "
                  f"({log.skipped_class} within 1e-6 of an edge, not compared)")
    print(f"  reference kernel {ref_ms:.4g} ms median of {len(log.refs)} runs "
          f"(min {1e3 * min(log.refs):.4g}, max {1e3 * max(log.refs):.4g}; "
          f"nominal {1e3 * REF_NOMINAL_S:.4g} ms)")

    if tracer:
        item_s = sum(latencies)
        metrics = spans.layer_metrics(tracer, log.output_bytes)
        metrics.update({
            "trace.items": attempted,
            "trace.item_s": item_s,
            "trace.items_per_s": attempted / sum(scaled),
            "trace.ref_ms": ref_ms,
        })
        report_traced(w, metrics, spans.layer_calls(tracer), spec.per_layer)
        path = OUT / f"spans-{w.name}-seed{args.seed}.jsonl"
        tracer.write(str(path))
        print(f"  {len(tracer.spans)} spans written to {path}")
        units = spec.per_layer
    else:
        metrics = {
            "items_per_s": passed / sum(scaled),
            "item_ms_p50": 1e3 * statistics.median(scaled),
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = spec.end_to_end
        wall = {
            "items_per_s": f"wall {passed / sum(latencies):.6g} 1/s",
            "item_ms_p50": f"wall {1e3 * statistics.median(latencies):.6g} ms; n={attempted}",
            "setup_s": "median of " + ", ".join(f"{s:.4f}" for s, _ in setups)
                       + "; wall " + ", ".join(f"{w_s:.4f}" for _, w_s in setups),
        }
        for name, value in metrics.items():
            note = f" at reference speed ({wall[name]})" if name in wall else ""
            print(f"  {name} {value:.6g} {units[name]}{note}")
        if attempted >= P90_MIN_ITEMS:
            print(f"  item_ms_p90 {1e3 * percentile(scaled, 90):.6g} ms at reference speed "
                  f"(n={attempted})")
        else:
            print(f"  item_ms_p90 not reported: {attempted} items < {P90_MIN_ITEMS}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def report_traced(w, metrics: dict, calls, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    metric, floor = w.purpose
    share = metrics[metric] / metrics["trace.item_s"]
    verdict = "confirmed" if share >= floor else "REFUTED"
    print(f"  prediction {metric} >= {floor:.0%} of item time: {share:.1%}, {verdict}")
    for layer in w.idle:
        verdict = "confirmed" if calls[layer] == 0 else "REFUTED"
        print(f"  prediction {layer} idle: {calls[layer]} calls, {verdict}")


def run_all(args, spec: Spec) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    merged, correct, attempted, failed = {}, True, 0, 0
    overhead = {}
    for name in spec.why:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"error: {name} (trace {trace}) exited with {done.returncode}",
                      file=sys.stderr)
                return done.returncode or 1
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            results.append(res)
            correct = correct and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            for metric, entry in res["metrics"].items():
                merged[f"{name}.{metric}"] = entry
        plain = results[0]["metrics"]["items_per_s"]["value"]
        traced = results[1]["metrics"]["trace.items_per_s"]["value"]
        overhead[name] = 1.0 - traced / plain
    print("tracing overhead (1 - traced/untraced items_per_s):")
    for name, value in overhead.items():
        print(f"  {name} {value:.1%}")
        merged[f"{name}.tracing_overhead"] = {"value": value, "unit": "fraction"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    spec = Spec.load()
    args = parse_args(sys.argv[1:] if argv is None else argv, spec)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "mathieu_kit" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'mathieu_kit'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    t_start = time.perf_counter()
    try:
        return run_one(args, spec, t_start)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
