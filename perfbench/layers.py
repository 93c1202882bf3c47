"""Per-layer metrics from the spans of traced rounds.

A pass is one run of each command: a round's reduce, shared by its
passes, and one run each of reference, estimate and audit.

A span's total time counts a call once even when a call of the same
name runs inside it; its self time is its duration minus the time its
child spans cover.  Counts come from one traced pass and must repeat
exactly in every other traced pass; times are medians over the
traced passes.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

import checks

RETRY_PARENTS = ("ansatz.recover", "ansatz.recover_nested")


class PassSpans:
    """Spans of the four commands of one pass, indexed for queries."""

    def __init__(self, one_pass):
        self.spans = []  # (name, duration, parent span or None, ok, count)
        for info in one_pass.values():
            base = len(self.spans)
            for name, start, end, parent, ok, count in info["spans"]:
                self.spans.append((name, end - start, None if parent < 0 else base + parent,
                                   ok, count))
        self.children_s = defaultdict(float)
        self.by_name = defaultdict(list)
        for i, (name, dur, parent, ok, count) in enumerate(self.spans):
            self.by_name[name].append(i)
            if parent is not None:
                self.children_s[parent] += dur

    def has_ancestor_in(self, idx, chosen):
        parent = self.spans[idx][2]
        while parent is not None:
            if parent in chosen:
                return True
            parent = self.spans[parent][2]
        return False

    def named(self, name):
        return self.by_name.get(name, [])

    def total_s(self, idxs):
        """Time covered by the spans ``idxs``, each counted once."""
        chosen = set(idxs)
        return sum(self.spans[i][1] for i in chosen if not self.has_ancestor_in(i, chosen))

    def retries(self):
        """Single-row restarts: the solver's per-row retry (a one-row
        ``recover_batch`` call from the reduced solver) and the ladder's
        ridge jitters and cold-start candidates (an inversion nested in
        another inversion)."""
        s = self.spans
        return ([i for i in self.named("ansatz.recover") if s[i][4] == 1]
                + [i for i in self.named("ansatz.recover_nested")
                   if s[i][2] is not None and s[s[i][2]][0] in RETRY_PARENTS])

    def summary(self):
        """calls, total and self seconds per span name."""
        out = {}
        for name in sorted(self.by_name):
            idxs = self.named(name)
            out[name] = {
                "calls": len(idxs),
                "total_s": self.total_s(idxs),
                "self_s": sum(self.spans[i][1] - self.children_s[i] for i in idxs),
            }
        return out


def _pass_figures(rs):
    """(counts, times) of one traced pass."""
    n = lambda name: len(rs.named(name))
    t = lambda *names: rs.total_s([i for name in names for i in rs.named(name)])
    retries = rs.retries()
    recover = rs.named("ansatz.recover")
    counts = {
        "ansatz.recover_calls": len(recover),
        "ansatz.recover_rows": sum(rs.spans[i][4] for i in recover),
        "ansatz.retry_attempts": len(retries),
        "ansatz.retry_successes": sum(rs.spans[i][3] for i in retries),
        "ansatz.cold_start_calls": n("ansatz.cold_start"),
        "reduced_solver.steps": n("reduced_solver.step"),
        "projection.assemble_calls": n("projection.assemble"),
        "projection.residual_calls": n("projection.residual"),
        "kinetic.entropy_calls": n("kinetic.entropy"),
        "reference_solver.substeps": n("reference_solver.transport"),
        "reference_solver.relax_calls": n("reference_solver.relax"),
        "error_estimator.lipschitz_samples": n("error_estimator.lipschitz_eval"),
        "stability.spectral_radius_calls": n("stability.spectral_radius"),
        "io.bytes_written": sum(rs.spans[i][4] for i in rs.named("io.write")),
    }
    times = {
        "ansatz.recover_s": t("ansatz.recover"),
        "ansatz.retry_s": rs.total_s(retries),
        "ansatz.cold_start_s": t("ansatz.cold_start"),
        "ansatz.project_initial_s": t("ansatz.project_initial"),
        "reduced_solver.step_s": t("reduced_solver.step"),
        "reduced_solver.speeds_s": t("reduced_solver.speeds"),
        "reduced_solver.rhs_s": t("reduced_solver.rhs"),
        "projection.assemble_s": t("projection.assemble"),
        "projection.residual_s": t("projection.residual"),
        "kinetic.entropy_s": t("kinetic.entropy"),
        "reference_solver.transport_s": t("reference_solver.transport"),
        "reference_solver.relax_s": t("reference_solver.relax"),
        "error_estimator.residual_series_s": t("error_estimator.residual_series"),
        "error_estimator.lipschitz_s": t("error_estimator.lipschitz"),
        "error_estimator.actual_error_s": t("error_estimator.actual_error"),
        "stability.hyperbolicity_s": t("stability.hyperbolicity"),
        "stability.speed_audit_s": t("stability.speed_audit"),
        "stability.gusc_s": t("stability.gusc"),
        "stability.yong_s": t("stability.yong"),
        "io.write_s": t("io.write"),
        "io.read_s": t("io.read"),
    }
    return counts, times


def samples(rounds, cmd, key="command_s"):
    """Every sample of ``cmd`` in the given rounds (reduce runs once per
    round and is shared by its passes): its ``key`` figure, or the whole
    record when ``key`` is None."""
    out = []
    for rnd in rounds:
        infos = [rnd["passes"][0][cmd]] if cmd == "reduce" else [p[cmd] for p in rnd["passes"]]
        out += [i if key is None else i[key] for i in infos if i is not None]
    return out


def pass_counts(one_pass):
    """The layer counts of one traced pass (reduce, reference, estimate, audit)."""
    return _pass_figures(PassSpans(one_pass))[0]


def per_layer(traced, untraced, wl, kernel_s):
    """Per-layer metrics, with units, from the complete passes of the
    traced rounds; the untraced rounds of the same run give the tracing
    overhead: the sum over the commands of the difference between their
    traced and untraced medians.  ``kernel_s`` are the calibration
    kernel's times over the run."""
    passes = [p for rnd in traced for p in rnd["passes"] if all(p.values())]
    figures = [_pass_figures(PassSpans(p)) for p in passes]
    counts = figures[0][0]
    (wl.out / "trace_summary.json").write_text(
        json.dumps(PassSpans(passes[0]).summary(), indent=2, sort_keys=True) + "\n")

    metrics = {}
    for name, value in counts.items():
        if name != "ansatz.retry_successes":
            metrics[name] = (value, "bytes" if name == "io.bytes_written" else "count")
    attempts = counts["ansatz.retry_attempts"]
    metrics["ansatz.retry_success_ratio"] = (
        counts["ansatz.retry_successes"] / attempts if attempts else 1.0, "ratio")
    for name in figures[0][1]:
        metrics[name] = (statistics.median(f[1][name] for f in figures), "s")

    est = wl.dirs()["estimate"]
    ratio = checks.column(est / "error.csv", "ratio")
    metrics["error_estimator.bound_ratio_final"] = (float(ratio[-1]), "ratio")
    metrics["error_estimator.lipschitz"] = (
        float(checks.read_json(est / "error_summary.json")["lipschitz"]), "1/time")

    setups = [s for rnd in traced + untraced for s in rnd["setup"] if s is not None]
    metrics["cli.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
    metrics["config.load_s"] = (statistics.median(s["config_s"] for s in setups), "s")
    metrics["machine.calibration_s"] = (statistics.median(kernel_s), "s")
    metrics["trace.overhead_s"] = (sum(
        statistics.median(samples(traced, cmd)) - statistics.median(samples(untraced, cmd))
        for cmd in ("reduce", "reference", "estimate", "audit")), "s")
    return metrics
