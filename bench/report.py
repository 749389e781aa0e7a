"""Metrics, failure census, environment record and the result line."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
from collections import Counter
from importlib import metadata

import expected as ex

# failed step -> per-layer failure counter
FAIL_COUNTERS = {
    "relations": "ladder.relations.fail",
    "positive_form": "ladder.positive_form.fail",
    "quadrature": "oracle.quadrature.fail",
    "residual": "oracle.residual.fail",
    "nodes": "radial.nodes.fail",
    "shoot.energy": "oracle.shoot.energy.fail",
    "shoot.nodes": "oracle.shoot.nodes.fail",
    "exit_nonzero": "cli.exit_nonzero",
}


def end_to_end(outcomes, op_s, setups, peak_rss_mb) -> dict:
    """Metrics of one seeded set of ops run in rounds.

    outcomes are the ops of one round, in order; op_s[i] is op i's time
    over the rounds, in seconds; setups are the set-up times of the rounds.
    """
    lat_ms = [t * 1e3 for t in op_s]
    digits = [ex.digits(o.err) for o in outcomes if o.err is not None]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[-1], "ms"),
        "accuracy_digits_p50": (statistics.median(digits), "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def import_times(stderr: str) -> dict:
    """From `-X importtime`: package import and scipy's share, in ms.

    import_ms sums the cumulative time of every top-level import made after
    interpreter start-up (after runpy), which is the package import plus any
    import a command makes lazily.  scipy_ms sums the self time of scipy's
    own modules wherever they were imported.
    """
    total = scipy = 0
    started = False
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        module = name.strip()
        if module == "scipy" or module.startswith("scipy."):
            scipy += int(self_us)
        if started and not name[1:].startswith(" "):
            total += int(cumulative_us)
        started = started or module == "runpy"
    return {"import_ms": total / 1e3, "scipy_ms": scipy / 1e3}


def per_layer(slices, untraced, python_start_s, suite_s, cli, panel) -> dict:
    tower, t_tracer, t_s = slices["tower_certify"]
    shoot, s_tracer, s_s = slices["shooting_oracle"]
    n_t, n_s = len(tower), len(shoot)
    metrics = {}

    def per_op_ms(tracer, n, layer, self_time=True):
        table = tracer.self_s if self_time else tracer.total_s
        return table.get(layer, 0.0) * 1e3 / n

    metrics["channels.self_ms"] = (per_op_ms(t_tracer, n_t, "channels"), "ms")
    metrics["ladder.raise.calls"] = (t_tracer.counts["ladder.raise.calls"] / n_t, "count")
    for layer in ("ladder.raise", "ladder.relations", "ladder.positive_form",
                  "radial.assemble", "radial.nodes", "oracle.quadrature", "oracle.residual"):
        metrics[layer + ".self_ms"] = (per_op_ms(t_tracer, n_t, layer), "ms")
    metrics["radial.eval.calls"] = (t_tracer.counts["radial.eval.calls"] / n_t, "count")
    metrics["oracle.quadrature.rule_builds"] = (
        t_tracer.counts["oracle.quadrature.rule_builds"] / n_t, "count")

    for name in ("oracle.det.calls", "oracle.integrate.calls", "oracle.integrate.rhs_evals"):
        metrics[name] = (s_tracer.counts[name] / n_s, "count")
    metrics["oracle.det.self_ms"] = (per_op_ms(s_tracer, n_s, "oracle.det"), "ms")
    metrics["oracle.integrate.ms"] = (per_op_ms(s_tracer, n_s, "oracle.integrate", False), "ms")
    metrics["oracle.shoot.self_ms"] = (per_op_ms(s_tracer, n_s, "oracle.shoot"), "ms")

    metrics["cli.python_start_ms"] = (python_start_s * 1e3, "ms")
    metrics["cli.import_ms"] = (statistics.median(c[3]["import_ms"] for c in cli), "ms")
    metrics["cli.import_scipy_ms"] = (statistics.median(c[3]["scipy_ms"] for c in cli), "ms")
    for command in ("spectrum", "wavefunction", "verify"):
        walls = [c[2] * 1e3 for c in cli if c[0] == command]
        metrics[f"cli.{command}.wall_ms"] = (statistics.median(walls), "ms")
    for name, seconds in suite_s.items():
        metrics[f"verify.{name}.ms"] = (seconds * 1e3, "ms")

    # failures of the traced slices (none expected) and of the defect panel
    causes = Counter(c for o in tower + shoot + [c[1] for c in cli] + panel for c in o.causes)
    for step, counter in FAIL_COUNTERS.items():
        metrics[counter] = (causes[step], "count")

    metrics["trace.overhead.tower_ms"] = ((t_s - untraced["tower_certify"]) * 1e3 / n_t, "ms")
    metrics["trace.overhead.shooting_ms"] = (
        (s_s - untraced["shooting_oracle"]) * 1e3 / n_s, "ms")
    return metrics


def correct(outcomes) -> bool:
    """Every op was checked and none failed outside the defect panel.

    The timed workloads and the traced slices hold physical channels and
    the verify suites only, the domain the test suite already guarantees,
    so any failure there is a regression.  The defect panel (parts "defect"
    and "edge") holds the known, open defects; its failures are counted in
    `failed` and in the per-layer failure counters, not treated as a broken
    run.
    """
    return bool(outcomes) and not any(o.failed for o in outcomes
                                      if o.part in ("physical", "suite"))


def _band_k(k):
    if k is None:
        return "-"
    return "k<6" if k < 6 else "k6-11" if k < 12 else "k12-15" if k < 16 else "k>=16"


def _band_zeta(zeta):
    if zeta is None:
        return "-"
    decade = math.floor(math.log10(zeta))
    return "z>=0.1" if decade >= -1 else "z<1e-5" if decade < -5 else f"z1e{decade}"


def census(outcomes) -> dict:
    by_cause = Counter(c for o in outcomes for c in o.causes + o.errors)
    bands = {}
    for o in outcomes:
        key = f"{o.part}|{_band_k(o.k)}|{_band_zeta(o.zeta)}"
        tried, failed = bands.get(key, (0, 0))
        bands[key] = (tried + 1, failed + o.failed)
    return {"by_cause": dict(sorted(by_cause.items())),
            "by_band_failed_of_attempted": {k: f"{f}/{t}" for k, (t, f) in sorted(bands.items())}}


def environment(seed) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "threads": {v: os.environ[v] for v in sorted(os.environ) if v.endswith("_THREADS")},
        "client_processes": 1,
        "seed": seed,
    }


def write_spans(directory, seed, slices):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"spans-seed{seed}.json")
    fields = ["op", "name", "start", "end", "parent"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": fields,
                   "spans": {w: t.spans for w, (_, t, _) in slices.items()}}, fh)


def emit(label, seed, outcomes, metrics):
    failed = sum(o.failed for o in outcomes)
    print(f"# env {json.dumps(environment(seed))}")
    print(f"# {label}: {len(outcomes)} ops, {failed} failed")
    print(f"# failures {json.dumps(census(outcomes))}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    sys.stdout.flush()
    print(json.dumps({"correct": correct(outcomes), "attempted": len(outcomes), "failed": failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
