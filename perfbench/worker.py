"""The CLI's set-up, done once, and its commands, each in a forked child.

    python3 perfbench/worker.py CONFIG

Imports ``kinreduce`` and loads the scenario CONFIG, the set-up every
``kinreduce`` call pays, then prints one JSON line with its clock
stamps (``time.perf_counter`` is CLOCK_MONOTONIC, so the parent can
compare them with its own).  It then reads requests from stdin, one
JSON line each: ``{"command", "args", "result", "spans"}``.  For each it
forks a child that runs the command as ``kinreduce <command>`` would,
timed apart from the set-up, and writes the exit code the CLI would
return and the command's time to ``result``; with ``spans`` set the
child traces the layers (see ``tracing.py``) and writes the spans
there.  Once the child has ended, the worker answers with one JSON line
holding the child's exit status and peak resident set.

Forking after the set-up gives each command a process of its own, as a
CLI call has, without paying the set-up again; nothing here starts a
thread, so the fork is safe.
"""

import json
import os
import sys
import time
import traceback
from pathlib import Path


def run_command(cli, cfg, req):
    """The child's work: one CLI command, timed."""
    from kinreduce.errors import ConfigurationError, KinReduceError

    recorder = None
    if req["spans"]:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    args = [Path(a) for a in req["args"]]
    out = args[-1]
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        if req["command"] == "estimate":
            code = cli.cmd_estimate(*args)
        else:
            code = getattr(cli, f"cmd_{req['command']}")(cfg, out)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = cli.EXIT_CONFIG
    except KinReduceError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        code = cli.EXIT_RUNTIME
    t1 = time.perf_counter()
    if recorder is not None:
        recorder.dump(req["spans"])
    Path(req["result"]).write_text(
        json.dumps({"exit_code": code, "command_s": t1 - t0}), encoding="utf-8")


def main(config_path):
    t_start = time.perf_counter()
    import kinreduce.cli as cli
    from kinreduce.config import load_config

    t_imported = time.perf_counter()
    cfg = load_config(config_path)
    t_ready = time.perf_counter()
    print(json.dumps({"t_ready": t_ready, "import_s": t_imported - t_start,
                      "config_s": t_ready - t_imported}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                run_command(cli, cfg, req)
                status = 0
            except Exception:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(status)
        _, status, usage = os.wait4(pid, 0)
        print(json.dumps({"status": os.waitstatus_to_exitcode(status),
                          "peak_rss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
