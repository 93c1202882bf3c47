"""Benchmark of the four kinreduce CLI commands, run from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A round starts one worker
process (``worker.py``), which does the CLI's set-up once, and runs
``reduce`` and then PASSES passes of ``reference``, ``estimate`` and
``audit`` on the workload's scenario, each command in a child process of
its own, one at a time; it then checks the outputs (``checks.py``).
SETUP_PROBES more processes per round do the set-up alone, so that
set-up time has samples enough for a steady median.  Before and
after every set-up and command the calibration kernel
(``calibration.py``) is timed, to scale that sample.  Rounds
repeat until the round boundary nearest to S seconds, and at least
twice, so that the data files can be compared between repeats.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations (an operation is one command
run or one check) and ``metrics``: the end-to-end metrics with
``--trace 0``, medians over the run's samples, each time scaled to
the reference speed of the calibration kernel; with ``--trace 1`` the
per-layer metrics of traced rounds (see ``tracing.py`` and
``layers.py``), which alternate with untraced rounds so that the
tracing overhead can be measured.  Outputs go to ``perfbench/out/``;
the measured samples, their scales and the kernel's passes go to
``perfbench/out/<workload>/end_to_end.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import calibration
import checks
import layers
from workloads import PERFBENCH_DIR, REPO_ROOT, WORKLOADS, scenario

COMMANDS = ("reduce", "reference", "estimate", "audit")
PASSES = 3
SETUP_PROBES = 1
ROUND_TIMEOUT_S = 80
# one BLAS thread: the solves work on matrices of a few rows, where a
# second thread on a two-core machine adds scheduling noise and no speed
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
# (workload, check) pairs that fail in every round because of a fault
# of the program, not of the benchmark; see CHANGES.md
KNOWN_FAULTS = {
    # the reference solver clips the negative tail of the Shakhov RK2
    # update to zero, which adds mass: c0 drifts by 1.2e-6 by t = 0.3
    ("cm4_shakhov_mix", "reference.conservation"),
}
DATA_FILES = {
    "reduce": ("trajectory.csv", "omega_snapshots.bin"),
    "reference": ("trajectory.csv", "snapshots.bin"),
    "estimate": ("error.csv", "error_summary.json"),
    "audit": ("stability.json",),
}


class Workload:
    def __init__(self, name, seed, out):
        self.name = name
        self.doc = scenario(name, seed)
        self.out = out
        self.config = out / "scenario.json"
        self.config.write_text(json.dumps(self.doc, indent=2) + "\n", encoding="utf-8")
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(REPO_ROOT / "src")}
        self.conservative = self.doc["manifold"]["kind"] == "conservative_moment"

    def dirs(self):
        return {cmd: self.out / cmd for cmd in COMMANDS}

    def args(self, cmd):
        d = self.dirs()
        if cmd == "estimate":
            return [str(d["reduce"]), str(d["reference"]), str(d["estimate"])]
        return [str(d[cmd])]

    def checks(self):
        """(name, thunk) pairs; every round runs the same list."""
        d, doc = self.dirs(), self.doc
        c012 = ("c0", "c1", "c2")
        out = [
            ("reference.conservation",
             lambda: checks.conservation(d["reference"] / "trajectory.csv", c012)),
            ("reference.entropy", lambda: checks.entropy_nonincreasing(d["reference"] / "trajectory.csv")),
            ("reduce.entropy", lambda: checks.entropy_nonincreasing(d["reduce"] / "trajectory.csv")),
            ("estimate.actual_column",
             lambda: checks.error_column(doc, d["reduce"], d["reference"], d["estimate"])),
            ("audit.rates_and_structure", lambda: checks.audit(doc, d["audit"])),
        ]
        if self.conservative:
            out.append(("reduce.conservation",
                        lambda: checks.conservation(d["reduce"] / "trajectory.csv", c012)))
            out.append(("estimate.bound_dominates", lambda: checks.bound_dominates(d["estimate"])))
        else:
            out.append(("estimate.initial_residual",
                        lambda: checks.initial_residual_vanishes(d["estimate"])))
        if self.name == "cm4_shakhov_mix":
            out.append(("homogeneous_relaxation",
                        lambda: checks.homogeneous_relaxation(doc, d["reduce"], d["reference"])))
        return out


class Worker:
    """A ``worker.py`` process: the CLI's set-up, then commands on request."""

    def __init__(self, wl):
        t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(PERFBENCH_DIR / "worker.py"), str(wl.config)],
            cwd=REPO_ROOT, env=wl.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True)
        # a hung command is killed with its worker, children included
        self.timer = threading.Timer(ROUND_TIMEOUT_S, self._kill)
        self.timer.start()
        self.setup = self._read()
        if self.setup is not None:
            self.setup.update(setup_s=self.setup["t_ready"] - t_spawn, t0=t_spawn,
                              t1=self.setup["t_ready"])

    def _kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def _read(self):
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def request(self, req):
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
        except OSError:
            return None
        return self._read()

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        self.proc.wait()
        self.timer.cancel()


def data_digest(dirs):
    """SHA-256 of every data file (the audit report without its
    wall-clock timings)."""
    h = hashlib.sha256()
    for cmd, names in DATA_FILES.items():
        for name in names:
            path = dirs[cmd] / name
            if not path.is_file():
                h.update(b"missing")
                continue
            raw = path.read_bytes()
            if cmd == "audit":
                rep = json.loads(raw)
                rep.pop("timings_seconds", None)
                raw = json.dumps(rep, sort_keys=True).encode()
            h.update(hashlib.sha256(raw).digest())
    return h.hexdigest()


class Tally:
    """Operations attempted and failed.  A failed check means a wrong
    output, unless it is a known fault of the program (KNOWN_FAULTS):
    that check fails in every round, is counted in ``failed`` and leaves
    ``correct`` true, which speaks of the operations that did not fail."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def record(self, name, reason, check=True):
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        self.wrong += check and (self.workload, name) not in KNOWN_FAULTS
        print(f"FAILED {name}: {reason}", file=sys.stderr)


def run_command(wl, worker, cmd, traced, tally):
    """One command in a child of ``worker``; its figures, or None if it failed."""
    result = wl.out / f"{cmd}.result.json"
    spans = wl.out / f"{cmd}.spans.json"
    result.unlink(missing_ok=True)
    shutil.rmtree(wl.dirs()[cmd], ignore_errors=True)
    t0 = time.perf_counter()
    reply = worker.request({"command": cmd, "args": wl.args(cmd), "result": str(result),
                            "spans": str(spans) if traced else None})
    t1 = time.perf_counter()
    info = json.loads(result.read_text()) if reply and result.is_file() else None
    if reply is None or info is None or reply["status"] != 0 or info["exit_code"] != 0:
        why = "no worker" if reply is None else f"status {reply['status']}, result {info}"
        tally.record(cmd, why, check=False)
        return None
    tally.record(cmd, None)
    info.update(peak_rss_kb=reply["peak_rss_kb"], t0=t0, t1=t1)
    if traced:
        info["spans"] = json.loads(spans.read_text())
    return info


def run_round(wl, traced, tally, timeline):
    """Set-up probes, then reduce and PASSES passes of the other three
    commands in one worker, then the checks; the calibration kernel
    runs before and after each set-up and command.  Returns the
    samples, the figures of each pass and the data digest after each
    pass."""
    rnd = {"traced": traced, "setup": [], "passes": [], "digests": []}
    timeline.measure()
    for _ in range(SETUP_PROBES):
        probe = Worker(wl)
        probe.close()
        timeline.measure()
        rnd["setup"].append(probe.setup)
    worker = Worker(wl)
    timeline.measure()
    rnd["setup"].append(worker.setup)
    try:
        reduce = run_command(wl, worker, "reduce", traced, tally)
        timeline.measure()
        for _ in range(PASSES):
            one = {"reduce": reduce}
            for cmd in COMMANDS[1:]:
                one[cmd] = run_command(wl, worker, cmd, traced, tally)
                timeline.measure()
            rnd["passes"].append(one)
            rnd["digests"].append(data_digest(wl.dirs()))
    finally:
        worker.close()
    for name, check in wl.checks():
        try:
            reason = check()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        tally.record(name, reason)
    return rnd


def end_to_end(rounds, timeline, out):
    """Medians over the run's samples, each scaled to the calibration
    kernel's reference speed (the measured samples, their intervals and
    scales and the kernel's passes are written to ``out/end_to_end.json``);
    the peak resident set is the highest among the commands' processes."""
    infos = {"setup_s": [s for rnd in rounds for s in rnd["setup"] if s is not None]}
    for cmd in COMMANDS:
        infos[f"{cmd}_s"] = layers.samples(rounds, cmd, None)
    measured, scales, metrics = {}, {}, {}
    for name, samples in infos.items():
        measured[name] = [i["setup_s" if name == "setup_s" else "command_s"] for i in samples]
        scales[name] = [timeline.scale(i["t0"], i["t1"]) for i in samples]
        metrics[name] = (statistics.median(t * k for t, k in zip(measured[name], scales[name])), "s")
    intervals = {name: [(i["t0"], i["t1"]) for i in samples] for name, samples in infos.items()}
    (out / "end_to_end.json").write_text(json.dumps(
        {"measured_s": measured, "intervals": intervals, "scale": scales,
         "kernel_passes": timeline.passes}) + "\n")
    rss = [kb for cmd in COMMANDS for kb in layers.samples(rounds, cmd, "peak_rss_kb")]
    metrics["peak_rss_mb"] = (max(rss) / 1024.0, "MB")
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (REPO_ROOT / "src" / "kinreduce" / "cli.py").is_file():
        print(f"error: no kinreduce sources under {REPO_ROOT / 'src'}; "
              "run from the root of a kinreduce checkout", file=sys.stderr)
        return 2
    out = PERFBENCH_DIR / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = Workload(args.workload, args.seed, out)

    # compile the package's bytecode once; users do not pay that per call
    subprocess.run([sys.executable, "-c", "import kinreduce.cli"], cwd=REPO_ROOT,
                   env=wl.env, check=True, timeout=ROUND_TIMEOUT_S)

    calibration.kernel_s()  # warm-up
    timeline = calibration.Timeline()
    tally = Tally(args.workload)
    rounds = []
    t_begin = time.perf_counter()
    # whole rounds, ending at the round boundary nearest to --seconds
    while (len(rounds) < (3 if args.trace else 2)
           or (time.perf_counter() - t_begin) * (1 + 0.5 / len(rounds)) < args.seconds):
        # with --trace 1, traced and untraced rounds alternate
        rounds.append(run_round(wl, bool(args.trace) and len(rounds) % 2 == 0, tally, timeline))

    # determinism: every pass of a round leaves the same data files as
    # the other passes and as the previous round (the first round is
    # compared with the last); the layer counts of a traced round's
    # passes must repeat those of every other traced pass
    counts = {json.dumps(layers.pass_counts(p), sort_keys=True)
              for rnd in rounds if rnd["traced"] for p in rnd["passes"] if all(p.values())}
    for i, rnd in enumerate(rounds):
        reason = None
        if len(set(rnd["digests"] + rounds[i - 1]["digests"])) != 1:
            reason = "data files differ between repeats"
        elif rnd["traced"] and len(counts) != 1:
            reason = "layer counts differ between traced passes"
        tally.record("determinism", reason)

    if args.trace:
        metrics = layers.per_layer([r for r in rounds if r["traced"]],
                                   [r for r in rounds if not r["traced"]], wl,
                                   [took for _, took in timeline.passes])
    else:
        metrics = end_to_end(rounds, timeline, wl.out)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
