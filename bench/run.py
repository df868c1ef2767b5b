"""Benchmark of the schmidt-gates CLI: end-to-end and per-layer metrics.

    python3 bench/run.py --workload cold_cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`. The
workloads (`cold_cli`, `fine_simulate`, `gate_tables`) are described in
bench/README.md. With `--trace 0` the last line of stdout is a JSON object
holding the end-to-end metrics; with `--trace 1` it holds the per-layer
metrics of a traced run. The lines before it are a readable summary.
"""

import os
import sys

# Noise controls for this process and every child: single-threaded BLAS and
# a fixed hash seed. The interpreter re-executes itself once to apply them.
FIXED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

if __name__ == "__main__" and any(os.environ.get(k) != v
                                  for k, v in FIXED_ENV.items()):
    os.environ.update(FIXED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import LAYERS, Tracer, merge  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Fresh interpreters timed for setup_s in every run (after one untimed
# warm-up), spread evenly over the measured run; the run reports their
# median.
SETUP_RUNS = 11

# A child that outlives this is killed and its item counts as failed.
CHILD_LIMIT_S = 60

# item_s.p90 is printed only when at least ten items lie beyond it. Neither
# it nor item_s.p50 is in BENCHMARK.json; see README.md.
P90_MIN_ITEMS = 100


def fail(message: str) -> None:
    print(f"bench/run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class _ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _ChildTimeout


def wait_child(proc: subprocess.Popen):
    """Reap `proc` with its resource usage; kill it after CHILD_LIMIT_S."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(CHILD_LIMIT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        code = os.waitstatus_to_exitcode(status)
    except _ChildTimeout:
        proc.kill()
        _, _, usage = os.wait4(proc.pid, 0)
        code = -signal.SIGKILL
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = code
    return code, usage


def launch(cmd: list, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one child to completion: (wall seconds, exit code, rusage)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=stdout,
                            stderr=stderr, env=child_env(), cwd=ROOT)
    code, usage = wait_child(proc)
    return time.perf_counter() - t0, code, usage


# --------------------------------------------------------------------------
# Setup
# --------------------------------------------------------------------------


class Setup:
    """Times fresh interpreters that import the CLI and generate the inputs.

    The timed launches are spread over the measured run, one at a time
    between items, so that they meet the host's fast and slow stretches as
    the items do. With tracing, a bare `python -c pass` launch follows each
    of them to give the interpreter start-up floor."""

    def __init__(self, workload: str, seed: int, work: Path, trace: bool):
        self.cmd = [sys.executable, str(BENCH / "child.py"), "setup",
                    workload, str(seed)]
        self.work = work
        self.trace = trace
        self.walls, self.probes, self.starts = [], [], []

    def _launch(self):
        target = self.work / "setup"
        with open(self.work / "setup.out", "w+b") as out:
            wall, code, _ = launch(self.cmd + [str(target)], stdout=out)
            out.seek(0)
            text = out.read().decode()
        if code != 0:
            fail(f"setup interpreter exited with status {code}")
        shutil.rmtree(target, ignore_errors=True)
        return wall, json.loads(text)

    def warm_up(self) -> None:
        """One untimed launch: fills the bytecode and page caches."""
        self._launch()

    def sample(self) -> None:
        wall, probe = self._launch()
        self.walls.append(wall)
        self.probes.append(probe)
        if self.trace:
            self.starts.append(launch([sys.executable, "-c", "pass"])[0])

    def due(self, elapsed: float, seconds: float) -> None:
        """Take the next sample once its slot of the run has begun."""
        n = len(self.walls)
        if n < SETUP_RUNS and elapsed >= (n + 0.5) * seconds / SETUP_RUNS:
            self.sample()

    def result(self) -> dict:
        while len(self.walls) < SETUP_RUNS:
            self.sample()
        result = {"setup_s": statistics.median(self.walls)}
        for key in self.probes[0]:
            result[key] = statistics.median(p[key] for p in self.probes)
        if self.starts:
            result["interp_start_s"] = statistics.median(self.starts)
        return result


# --------------------------------------------------------------------------
# Items
# --------------------------------------------------------------------------


class InProcess:
    """Runs items through `schmidt_gates.cli.main` in this interpreter; a
    traced item runs with the tracer's wrappers installed."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer

    def __call__(self, item, path: Path, out: Path, traced: bool, slot: int):
        argv = [item.command, str(path), "--out", str(out)]
        err = io.StringIO()
        if traced:
            self.tracer.install()
        try:
            with contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    traceback.print_exc()
                    code = -1
                wall = time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.remove()
        return wall, code, err.getvalue(), 0

    def spans(self) -> dict:
        return self.tracer.snapshot()


class Cold:
    """Runs each item as a fresh `python -m schmidt_gates.cli` process, or,
    traced, through child.py, which writes the item's spans to a file."""

    def __init__(self, work: Path):
        self.work = work
        self.traces = []

    def __call__(self, item, path: Path, out: Path, traced: bool, slot: int):
        tail = [item.command, str(path), "--out", str(out)]
        if traced:
            trace = self.work / f"trace{slot}.json"
            cmd = [sys.executable, str(BENCH / "child.py"), "cli", str(trace)]
        else:
            cmd = [sys.executable, "-m", "schmidt_gates.cli"]
        with open(self.work / "stderr.txt", "w+b") as err:
            wall, code, usage = launch(cmd + tail, stderr=err)
            err.seek(0)
            text = err.read().decode(errors="replace")
        if traced and trace.exists():
            self.traces.append(json.loads(trace.read_text(encoding="utf-8")))
            trace.unlink()
        return wall, code, text, usage.ru_maxrss

    def spans(self) -> dict:
        total = {}
        for part in self.traces:
            merge(total, part)
        return total


# --------------------------------------------------------------------------
# Measurement loop
# --------------------------------------------------------------------------


def cpu_ticks():
    """(steal, busy) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq + steal


class Tally:
    """Item wall times and round count of the plain or the traced rounds."""

    def __init__(self):
        self.times = []
        self.rounds = 0

    @property
    def total(self):
        return sum(self.times)


def run_rounds(items, paths, run_item, checker, setup, work, seconds,
               trace):
    """Repeat the round for about `seconds`, in whole rounds, with the setup
    samples between items; with `trace`, rounds alternate plain and traced
    (at least one of each)."""
    out_dir = work / "out"
    out_dir.mkdir()
    plain, traced = Tally(), Tally()
    failures = {}
    peak_kb = 0
    t_start = time.perf_counter()
    while True:
        is_traced = trace and plain.rounds > traced.rounds
        tally = traced if is_traced else plain
        for slot, (item, path) in enumerate(zip(items, paths)):
            setup.due(time.perf_counter() - t_start, seconds)
            out = out_dir / f"{slot:03d}.out"
            out.unlink(missing_ok=True)
            wall, code, stderr, rss_kb = run_item(item, path, out, is_traced,
                                                  slot)
            output = out.read_text(encoding="utf-8") if out.exists() else None
            tally.times.append(wall)
            if not is_traced:
                peak_kb = max(peak_kb, rss_kb)
            kind = checker(item, code, stderr, output)
            if kind is not None:
                failures.setdefault(slot, set()).add(kind)
        tally.rounds += 1
        done = plain.rounds + traced.rounds
        elapsed = time.perf_counter() - t_start
        enough = traced.rounds >= 1 or not trace
        # stop where the measured time lands nearest to `seconds`
        if enough and elapsed + 0.5 * elapsed / done > seconds:
            return plain, traced, failures, peak_kb, elapsed


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

# (metric, span, scale, unit): mean inclusive time per call of the span.
PER_CALL = (
    ("cli.main_s", "cli.main", 1.0, "s"),
    ("cli.load_scenario_us", "cli.load_scenario", 1e6, "us"),
    ("cli.format_float_us", "cli.format_float", 1e6, "us"),
    ("cli.dump_report_us", "cli.dump_report", 1e6, "us"),
    ("dynamics.propagate_ms", "dynamics.propagate", 1e3, "ms"),
    ("linalg.herm_exp_us", "linalg.herm_exp", 1e6, "us"),
    ("dynamics.reverse_engineer_ms", "dynamics.reverse_engineer", 1e3, "ms"),
    ("dynamics.dynamical_phase_us", "dynamics.dynamical_phase", 1e6, "us"),
    ("sphere.path_build_us", "sphere.path_build", 1e6, "us"),
    ("sphere.solid_angle_us", "sphere.solid_angle", 1e6, "us"),
    ("gates.schmidt_gate_us", "gates.schmidt_gate", 1e6, "us"),
    ("invariants.makhlin_us", "invariants.makhlin_invariants", 1e6, "us"),
    ("invariants.closed_form_us", "invariants.closed_form_invariants", 1e6,
     "us"),
    ("invariants.classify_us", "invariants.classify", 1e6, "us"),
    ("dynamics.trotter_propagate_us", "dynamics.trotter_propagate", 1e6,
     "us"),
    ("dynamics.composed_tilted_gate_us", "dynamics.composed_tilted_gate",
     1e6, "us"),
)

# (metric, span): calls of the span per traced item.
PER_ITEM = (
    ("cli.format_float.calls", "cli.format_float"),
    ("linalg.herm_exp.calls", "linalg.herm_exp"),
    ("gates.schmidt_gate.calls", "gates.schmidt_gate"),
    ("sphere.assemble_state.calls", "sphere.assemble_state"),
    ("invariants.makhlin.calls", "invariants.makhlin_invariants"),
)

STEP_EDGE = "dynamics.propagate>linalg.herm_exp"


def layer_metrics(snap: dict, traced: Tally, plain: Tally, setup: dict,
                  env: dict) -> dict:
    calls, inclusive = snap.get("calls", {}), snap.get("inclusive", {})
    n_items = len(traced.times)
    metrics = {
        "cli.interp_start_s": (setup["interp_start_s"], "s"),
        "cli.import_s": (setup["import_s"], "s"),
        "cli.import_numpy_s": (setup["import_numpy_s"], "s"),
        "cli.import_jsonschema_s": (setup["import_jsonschema_s"], "s"),
    }
    for name, span, scale, unit in PER_CALL:
        n = calls.get(span, 0)
        metrics[name] = (inclusive.get(span, 0.0) / n * scale if n else 0.0,
                         unit)
    for name, span in PER_ITEM:
        metrics[name] = (calls.get(span, 0) / n_items, "1/item")
    metrics["cli.load_scenario.rejected"] = (
        snap.get("raised", {}).get("cli.load_scenario", 0) / n_items,
        "1/item")
    steps = snap.get("edges", {}).get(STEP_EDGE, 0)
    n_prop = calls.get("dynamics.propagate", 0)
    metrics["dynamics.propagate.steps"] = (steps / n_prop if n_prop else 0.0,
                                           "1/call")
    metrics["dynamics.step_us"] = (
        inclusive.get("dynamics.propagate", 0.0) / steps * 1e6 if steps
        else 0.0, "us")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (
            snap.get("layer_self", {}).get(layer, 0.0) / traced.total,
            "share")
        metrics[f"{layer}.errors"] = (
            snap.get("layer_errors", {}).get(layer, 0), "count")
    plain_round = plain.total / plain.rounds
    traced_round = traced.total / traced.rounds
    metrics["trace.overhead_share"] = (1.0 - plain_round / traced_round,
                                       "share")
    metrics["env.steal_share"] = (env["steal_share"], "share")
    metrics["env.loadavg_1m"] = (env["loadavg_1m"], "1")
    return metrics


def end_to_end_metrics(plain: Tally, setup: dict, peak_kb: int) -> dict:
    return {
        "setup_s": (setup["setup_s"], "s"),
        "items_per_s": (len(plain.times) / plain.total, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    setup = Setup(args.workload, args.seed, work, bool(args.trace))
    setup.warm_up()

    from schmidt_gates import cli

    items = wl.make_round(args.workload, args.seed, ROOT)
    paths = wl.write_inputs(items, work / "items")
    checker = wl.Checker()
    if args.workload == "cold_cli":
        run_item = Cold(work)
    else:
        run_item = InProcess(cli, Tracer() if args.trace else None)

    warm = wl.warmup_items(args.workload, ROOT)
    warm_paths = wl.write_inputs(warm, work / "warmup")
    for slot, (item, path) in enumerate(zip(warm, warm_paths)):
        run_item(item, path, work / "warmup.out", False, slot)

    ticks0 = cpu_ticks()
    plain, traced, failures, peak_kb, elapsed = run_rounds(
        items, paths, run_item, checker, setup, work, args.seconds,
        bool(args.trace))
    setup = setup.result()
    ticks1 = cpu_ticks()
    steal = 0.0
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    env = {"steal_share": steal, "loadavg_1m": os.getloadavg()[0]}

    if args.trace:
        snap = run_item.spans()
        metrics = layer_metrics(snap, traced, plain, setup, env)
    else:
        if args.workload != "cold_cli":
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end_metrics(plain, setup, peak_kb)

    # A run counts each input of its round once, failed if it failed in
    # any round, so that both counts depend on the seed only and not on
    # how many rounds fitted into the run.
    kinds = set().union(*failures.values())
    unexpected = kinds - wl.KNOWN_DEFECTS
    summary(args, items, plain, traced, elapsed, setup, env, failures,
            metrics)
    return {"correct": not unexpected,
            "attempted": len(items), "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def summary(args, items, plain, traced, elapsed, setup, env, failures,
            metrics) -> None:
    kinds = Counter(item.kind for item in items)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{plain.rounds} plain + {traced.rounds} traced rounds of "
          f"{len(items)} items in {elapsed:.1f} s")
    print("round: " + ", ".join(f"{k} x{n}" for k, n in sorted(kinds.items())))
    per_round = len(items)
    for name, tally in (("plain", plain), ("traced", traced)):
        if tally.rounds:
            sums = [sum(tally.times[i:i + per_round])
                    for i in range(0, len(tally.times), per_round)]
            print(f"{name} round wall times: "
                  + ", ".join(f"{t:.3f}" for t in sums) + " s")
    print(f"setup: median of {SETUP_RUNS} fresh interpreters spread over the "
          f"run, "
          f"{setup['setup_s']:.4f} s (import {setup['import_s']:.4f} s, "
          f"generate {setup['generate_s']:.4f} s)")
    n = len(plain.times)
    print(f"item_s.p50 {statistics.median(plain.times):.6f} s over {n} items")
    if n >= P90_MIN_ITEMS:
        p90 = statistics.quantiles(plain.times, n=10)[-1]
        print(f"item_s.p90 {p90:.6f} s over {n} items")
    else:
        print(f"item_s.p90 not reported: {n} timed items, "
              f"fewer than {P90_MIN_ITEMS}")
    print(f"fail_share {len(failures) / per_round:.6f} ({len(failures)} of "
          f"{per_round} inputs, over {plain.rounds + traced.rounds} rounds)"
          + "".join(
              f"; input {slot} {items[slot].kind}: {', '.join(sorted(k))}"
              for slot, k in sorted(failures.items())))
    print(f"env.steal_share {env['steal_share']:.4f}, "
          f"env.loadavg_1m {env['loadavg_1m']:.2f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "schmidt_gates" / "cli.py").is_file():
        fail(f"no package source at {SRC / 'schmidt_gates'}")
    if not (ROOT / "scenarios").is_dir():
        fail(f"no shipped scenarios at {ROOT / 'scenarios'}")
    if not args.seconds > 0:
        fail("--seconds must be positive")
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
