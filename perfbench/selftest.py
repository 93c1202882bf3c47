"""Shows that every output check fails on a corrupted copy of the outputs.

    python3 perfbench/selftest.py WORKLOAD

Run after ``run.py`` has left a round's outputs in ``perfbench/out/WORKLOAD``.
Each case copies those outputs, corrupts one file in one way, and runs
the workload's checks on the copy: the targeted check must fail, and on
an unmodified copy every check must pass (the reference conservation
check of cm4_shakhov_mix, a known fault, is expected to fail on both).
Exits 1 if a corruption goes unnoticed.
"""

from __future__ import annotations

import json
import shutil
import struct
import sys

import numpy as np

import checks
import run
from workloads import PERFBENCH_DIR


def _edit_csv(path, column, row, fn):
    lines = path.read_text().split()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    j = header.index(column)
    cells[j] = format(fn(float(cells[j])), ".17g")
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _raise_last_entropy(path):
    prev = checks.column(path, "entropy")[-2]
    _edit_csv(path, "entropy", -1, lambda v: prev + 1e-9 * abs(prev))


def _edit_block(path, fn):
    raw = bytearray(path.read_bytes())
    rows, cols, n = struct.unpack("<qqq", raw[:24])
    data = np.frombuffer(bytes(raw[40:]), dtype="<f8").reshape(n, rows, cols).copy()
    fn(data)
    path.write_bytes(bytes(raw[:40]) + data.tobytes())


def _edit_json(path, fn):
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def _set(*keys, value):
    def fn(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value(doc[keys[-1]])
    return fn


def _bump_cell(frame, cell, col, rel):
    def fn(data):
        data[frame, cell, col] *= 1.0 + rel
    return fn


def _bump_peak(rel):
    def fn(data):
        cell, node = np.unravel_index(np.argmax(data[-1]), data[-1].shape)
        data[-1, cell, node] *= 1.0 + rel
    return fn


def cases(wl):
    """(check, description, corrupt(dirs)) triples for this workload."""
    last = -1
    out = [
        ("reference.conservation", "c0 total of the last frame +1e-7 relative",
         lambda d: _edit_csv(d["reference"] / "trajectory.csv", "c0", last, lambda v: v * (1 + 1e-7))),
        ("reference.entropy", "last reference entropy 1e-9 relative above the one before",
         lambda d: _raise_last_entropy(d["reference"] / "trajectory.csv")),
        ("reduce.entropy", "last reduce entropy 1e-9 relative above the one before",
         lambda d: _raise_last_entropy(d["reduce"] / "trajectory.csv")),
        ("estimate.actual_column", "largest reference value of the last frame +1e-6 relative",
         lambda d: _edit_block(d["reference"] / "snapshots.bin", _bump_peak(1e-6))),
        ("audit.rates_and_structure", "BGK worst quotient off by 1e-7",
         lambda d: _edit_json(d["audit"] / "stability.json",
                              _set("gusc", "bgk", "worst_quotient", value=lambda v: v + 1e-7))),
        ("audit.rates_and_structure", "A1 asymmetry 1e-9",
         lambda d: _edit_json(d["audit"] / "stability.json",
                              _set("hyperbolicity", "max_asymmetry", value=lambda v: 1e-9))),
        ("audit.rates_and_structure", "maximum speed above L",
         lambda d: _edit_json(d["audit"] / "stability.json",
                              _set("speed", "max_radius", value=lambda v: 1.0001 * wl.doc["velocity_grid"]["half_width"]))),
        ("audit.rates_and_structure", "Yong dissipativity fails",
         lambda d: _edit_json(d["audit"] / "stability.json",
                              _set("yong", "dissipativity_pass", value=lambda v: False))),
    ]
    if wl.conservative:
        out += [
            ("reduce.conservation", "c2 total of the last frame +1e-7 relative",
             lambda d: _edit_csv(d["reduce"] / "trajectory.csv", "c2", last, lambda v: v * (1 + 1e-7))),
            ("estimate.bound_dominates", "last bound set to 0.99 x actual",
             lambda d: _edit_csv(d["estimate"] / "error.csv", "bound", last,
                                 lambda v: 0.99 * checks.column(d["estimate"] / "error.csv", "actual")[-1])),
            ("estimate.bound_dominates", "summary says not dominated",
             lambda d: _edit_json(d["estimate"] / "error_summary.json",
                                  _set("dominated", value=lambda v: False))),
        ]
    else:
        out.append(("estimate.initial_residual", "residual at t = 0 set to 1e-9",
                    lambda d: _edit_csv(d["estimate"] / "error.csv", "residual_norm", 1,
                                        lambda v: 1e-9)))
    if wl.name == "cm4_shakhov_mix":
        out += [
            ("homogeneous_relaxation", "one cell's alpha_0 in the last reduce frame +1e-9 relative",
             lambda d: _edit_block(d["reduce"] / "omega_snapshots.bin", _bump_cell(-1, 3, 0, 1e-9))),
            ("homogeneous_relaxation", "one reference cell of the last frame +1e-9 relative",
             lambda d: _edit_block(d["reference"] / "snapshots.bin", _bump_cell(-1, 3, 300, 1e-9))),
            ("homogeneous_relaxation", "Gaussian theta of every cell in the last reduce frame +1e-8 relative",
             lambda d: _edit_block(d["reduce"] / "omega_snapshots.bin",
                                   lambda a: a.__setitem__((-1, slice(None), -1), a[-1, :, -1] * (1 + 1e-8)))),
            ("homogeneous_relaxation", "last output time of the reduce trajectory +1e-3",
             lambda d: _edit_csv(d["reduce"] / "trajectory.csv", "time", last, lambda v: v + 1e-3)),
        ]
    return out


def run_checks(wl):
    return {name: check() for name, check in wl.checks()}


def main(name):
    src = PERFBENCH_DIR / "out" / name
    if not (src / "scenario.json").is_file():
        print(f"error: run perfbench/run.py --workload {name} first", file=sys.stderr)
        return 2
    work = PERFBENCH_DIR / "out" / "selftest" / name
    seed = json.loads((src / "scenario.json").read_text())["seeds"]["audit"]

    def fresh_copy():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for cmd in run.COMMANDS:
            shutil.copytree(src / cmd, work / cmd)
        return run.Workload(name, seed, work)

    bad = 0
    wl = fresh_copy()
    baseline = run_checks(wl)
    for check, reason in baseline.items():
        known = (name, check) in run.KNOWN_FAULTS
        if (reason is None) == known:
            print(f"UNEXPECTED {check} on unmodified outputs: {reason}")
            bad += 1
    digest = run.data_digest(wl.dirs())
    for check, what, corrupt in cases(wl):
        wl = fresh_copy()
        corrupt(wl.dirs())
        reason = run_checks(wl)[check]
        changed = run.data_digest(wl.dirs()) != digest
        caught = reason is not None and (name, check) not in run.KNOWN_FAULTS
        if (name, check) in run.KNOWN_FAULTS:
            caught = reason is not None and reason != baseline[check]
        print(f"{'caught' if caught else 'MISSED'}  {check:28s} {what}: {reason}")
        print(f"{'caught' if changed else 'MISSED'}  {'determinism':28s} {what}")
        bad += (not caught) + (not changed)
    shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
