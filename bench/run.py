"""diracladder benchmark: closed-loop, single-client workloads.

    python3 bench/run.py --workload tower_certify --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --self-test

Run from anywhere inside a source checkout; the package is imported from the
checkout's src/.  With --trace 0 the run draws one seeded set of ops of the
workload and runs it in rounds until --seconds have passed; each in-process
round runs in a fresh interpreter, and every op of every round is checked.
Every time is divided by the host's slowdown measured around it (see
hostspeed); the timing metrics use each op's median over the rounds, and
setup_s is the median set-up time of the rounds.  The run and all its
children are pinned to one CPU.  The timed workloads draw physical
channels only, on which no operation fails.  BENCHMARK.json lists
tower_certify and state_certify.  shooting_oracle and cli_cold run the same
way but are left out there: their ops take 0.3 to 1 s each, too few per run
for steady times on a shared host, and the host speed kernel tracks them
less well; their layers are measured in the traced run, and CLI start-up
and import costs also in every workload's setup_s.  With --trace 1 it runs
fixed seeded slices of tower_certify, shooting_oracle and cli_cold
(whatever --workload and --seconds say) with spans and counters around the
package's public functions, then the defect panel (the known failures, the
same for every seed) untraced, and prints the per-layer metrics; each metric
comes from the workload it describes, and its counts repeat exactly for one
seed.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:             # before numpy loads anywhere
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import mix  # noqa: E402  (the benchmark's own module; no package import)

WORKLOADS = ("tower_certify", "state_certify", "shooting_oracle", "cli_cold")
# ops in one round of each workload: the first of its seeded stream
ROUND_OPS = {"tower_certify": mix.TOWER_BLOCK_STATES, "state_certify": 4 * len(mix.TOWER_SLOTS),
             "shooting_oracle": len(mix.SHOOTING_SLOTS), "cli_cold": len(mix.CLI_BLOCK)}
PYTHON_STARTS = 5
# traced slices have fixed op counts, so per-op counts repeat exactly
TRACE_TOWER_STATES = mix.TOWER_BLOCK_STATES
TRACE_SHOOTING_OPS = 10
TRACE_CLI_CALLS = 10


def now() -> float:
    # system-wide clock, comparable between this process and its children
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def operation(workload):
    """(op, stream function, warm-up input) of a workload; op(*input) -> Outcome."""
    import ops
    if workload == "tower_certify":
        return ops.TowerCertifier(), mix.tower_states, (mix.WARMUP, mix.WARMUP.K)
    if workload == "state_certify":
        return ops.TowerCertifier(), mix.single_states, (mix.WARMUP, mix.WARMUP.K)
    if workload == "shooting_oracle":
        return ops.Shooter(), mix.shooting_states, (mix.WARMUP, mix.WARMUP.K)
    env = child_env()
    return ((lambda *call: ops.run_cli(*call, env, ROOT)[0]), mix.cli_calls,
            ("spectrum", 53, mix.WARMUP))


# ---------------------------------------------------------------------------
# end-to-end run

def timed_round(workload, seed):
    """One round: warm up, then run the round's ops once, each timed.

    Returns (set-up done time, per-op seconds, outcomes, per-op host
    slowdowns).  For cli_cold the warm-up is itself a cold CLI call, so
    set-up counts from its start.  After the warm-up and after each op the
    host speed kernel runs for a twentieth of that time, at least once.
    """
    import hostspeed

    def gap(busy_s):
        samples = [hostspeed.sample()]
        while sum(samples) < busy_s / 20:
            samples.append(hostspeed.sample())
        return samples

    t_setup = now()
    op, states, warmup = operation(workload)
    op(*warmup)
    setup_done = now()
    times, outcomes, gaps = [], [], [gap(setup_done - t_setup)]
    for item in mix.first(states(seed), ROUND_OPS[workload]):
        t0 = now()
        outcomes.append(op(*item))
        times.append(now() - t0)
        gaps.append(gap(times[-1]))
    setup = setup_done - t_setup if workload == "cli_cold" else setup_done
    return setup, times, outcomes, hostspeed.slowdowns(gaps)


def round_body(workload, seed):
    """Child process body of one in-process round; prints it as JSON."""
    import dataclasses
    import json
    setup_done, times, outcomes, slowdowns = timed_round(workload, seed)
    print(json.dumps({"setup_done": setup_done, "times": times, "slowdowns": slowdowns,
                      "outcomes": [dataclasses.asdict(o) for o in outcomes]}))


def run_round(workload, seed):
    """(set-up seconds, per-op seconds, outcomes, per-op slowdowns) of one round.

    In-process workloads run each round in a fresh interpreter, so set-up is
    paid again and nothing one round computes can be reused by the next.
    """
    import json
    import subprocess

    import ops
    if workload == "cli_cold":       # every op is a fresh process already
        return timed_round(workload, seed)
    t0 = now()
    proc = subprocess.run([sys.executable, __file__, "--round", "--workload", workload,
                           "--seed", str(seed)], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=150, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return (result["setup_done"] - t0, result["times"],
            [ops.Outcome(**o) for o in result["outcomes"]], result["slowdowns"])


def run_workload(workload, seed, seconds):
    """Repeat rounds over one seeded set of ops until --seconds have passed.

    Every op's time is divided by the host slowdown measured around it, and
    set-up time by that of the round's first op (see hostspeed); an op's
    time is then the median over the rounds, and set-up time the median of
    the rounds' set-up times.
    """
    import resource
    import statistics

    import report

    rounds, outcomes = [], []
    deadline = now() + seconds
    while not rounds or now() < deadline:
        setup_s, times, outs, slowdowns = run_round(workload, seed)
        rounds.append((setup_s, times, slowdowns))
        outcomes += outs
    n_ops = len(rounds[0][1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def metrics(normalise):
        def scale(slowdowns, i):
            return slowdowns[i] if normalise else 1.0
        setups = [setup / scale(slow, 0) for setup, _, slow in rounds]
        op_s = [statistics.median(times[i] / scale(slow, i) for _, times, slow in rounds)
                for i in range(n_ops)]
        return report.end_to_end(outcomes[:n_ops], op_s, setups, peak_rss_mb)

    slow = [f for _, _, slowdowns in rounds for f in slowdowns]
    print(f"# {len(rounds)} rounds of {n_ops} ops; host slowdown median "
          f"{statistics.median(slow)!r}, range {min(slow)!r}..{max(slow)!r}")
    for name, (value, unit) in metrics(normalise=False).items():
        if unit in ("s", "ms", "1/s"):
            print(f"# not normalised: {name} = {value!r} {unit}")
    report.emit(workload, seed, outcomes, metrics(normalise=True))


# ---------------------------------------------------------------------------
# traced run

def in_process_slices(seed, n_tower, n_shoot, traced=True):
    """The first ops of the in-process workloads: {workload: (outcomes, tracer, s)}."""
    import tracing
    result = {}
    for workload, n in (("tower_certify", n_tower), ("shooting_oracle", n_shoot)):
        op, states, _ = operation(workload)
        tracer = tracing.Tracer().install() if traced else None
        outcomes = []
        t0 = now()
        for i, item in enumerate(mix.first(states(seed), n)):
            if tracer:
                tracer.op = i
            outcomes.append(op(*item))
        elapsed = now() - t0
        if tracer:
            tracer.uninstall()
        result[workload] = (outcomes, tracer, elapsed)
    return result


def run_traced(seed):
    import json
    import statistics
    import subprocess

    import ops
    import report

    # tracing overhead reference: the same slices in a fresh, untraced process
    proc = subprocess.run([sys.executable, __file__, "--untraced-slices", "--seed", str(seed)],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=170, check=True)
    untraced = json.loads(proc.stdout.splitlines()[-1])

    starts = []
    for _ in range(PYTHON_STARTS):
        t0 = now()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        starts.append(now() - t0)

    slices = in_process_slices(seed, TRACE_TOWER_STATES, TRACE_SHOOTING_OPS)

    import diracladder
    suite_s = {}
    for name in diracladder.SUITE_NAMES:
        t0 = now()
        diracladder.run_suite(name)
        suite_s[name] = now() - t0

    cli = []
    env = child_env()
    for call in mix.first(mix.cli_calls(seed), TRACE_CLI_CALLS):
        t0 = now()
        outcome, proc = ops.run_cli(*call, env, ROOT, importtime=True)
        cli.append((call[0], outcome, now() - t0, report.import_times(proc.stderr)))

    panel = defect_panel(env)
    metrics = report.per_layer(slices, untraced, statistics.median(starts), suite_s, cli, panel)
    outcomes = ([o for outs, _, _ in slices.values() for o in outs] + [c[1] for c in cli]
                + panel)
    report.write_spans(os.path.join(ROOT, ".bench_out"), seed, slices)
    report.emit("traced slices", seed, outcomes, metrics)


def defect_panel(env) -> list:
    """Outcomes of the known-defect inputs, untraced; the same for every seed."""
    import ops
    outcomes = []
    for workload, states in (("tower_certify", mix.panel_tower_states),
                             ("shooting_oracle", mix.panel_shooting_states)):
        op = operation(workload)[0]
        outcomes += [op(*item) for item in states()]
    outcomes += [ops.run_cli(*call, env, ROOT)[0] for call in mix.panel_cli_calls()]
    return outcomes


def untraced_slices(seed):
    import json
    slices = in_process_slices(seed, TRACE_TOWER_STATES, TRACE_SHOOTING_OPS, traced=False)
    print(json.dumps({w: s for w, (_, _, s) in slices.items()}))


def counts_slice(seed):
    """Self-test child: the exact counts of a small traced slice."""
    import json
    slices = in_process_slices(seed, 30, 3)
    print(json.dumps({w: dict(t.counts) for w, (_, t, _) in slices.items()}, sort_keys=True))


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the expected values, the generator and count repeatability")
    # bodies of the child processes this script starts
    for flag in ("--round", "--untraced-slices", "--counts-slice"):
        parser.add_argument(flag, action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "diracladder", "__init__.py")):
        print(f"no diracladder sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # one CPU for this process and every child, so the host speed kernel
    # (see hostspeed) is timed on the CPU the ops ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.round:
        round_body(args.workload, args.seed)
    elif args.untraced_slices:
        untraced_slices(args.seed)
    elif args.counts_slice:
        counts_slice(args.seed)
    elif args.self_test:
        import selftest
        return selftest.main(__file__, child_env(), ROOT)
    elif args.workload is None:
        parser.error("--workload is required")
    elif args.trace:
        run_traced(args.seed)
    else:
        run_workload(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
