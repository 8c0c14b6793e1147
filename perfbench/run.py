#!/usr/bin/env python3
"""Benchmark of the read-retry simulator: host time and paper fidelity.

    python3 perfbench/run.py --workload fig14|sweep-qd|gc-array|charact
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. It builds `repro` (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then, for `--seconds`, runs the
workload's `repro` command one process at a time, checks every output and
prints, as the last stdout line, one JSON object:
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

`--trace 0` reports the end-to-end metrics of the untraced `repro` runs.
`--trace 1` also builds the traced run (`perfbench/traced`, a separate
cargo package), which replays the same work through the libraries with a
span at each layer boundary, checks that its simulated numbers equal
`repro` stdout, and reports the per-layer metrics.

Simulated time is what the modelled SSD takes; every metric here is host
time or a count, except fidelity, which compares simulated results with
the paper (see `paper.py`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import paper  # noqa: E402
import parse  # noqa: E402

DEFAULT_SEED = 0x5EED2021  # repro's own default seed
TRACE_LEN = 5000  # requests per replayed trace at paper scale
CHARACT_PAGES = 160 * 256  # chips x sampled pages per chip at paper scale
JOBS = 2  # worker threads the multi-worker workloads use; perfbench/traced has the same constant
MAX_MEASURE_S = 120  # stop starting repro runs after this, to exit well within 180 s

FIG14_WORKLOADS = [
    "stg_0", "hm_0", "prn_1", "proj_1", "mds_1", "usr_1",
    "YCSB-A", "YCSB-B", "YCSB-C", "YCSB-D", "YCSB-E", "YCSB-F",
]
FIG14_ROWS = [f"{w}/{pec}/{mo}" for w in FIG14_WORKLOADS for pec in (1000, 2000) for mo in (0, 6, 12)]
CHARACT_ROWS = [f"{pec}/{mo}" for pec in (0, 1000, 2000) for mo in (0, 3, 6, 9, 12)]

END_TO_END = {
    "wall_s": "s",
    "host_req_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fidelity_pct": "%",
    "completed_frac": "1",
}

PER_LAYER = {
    "workloads.synth_s": "s",
    "snapshot.precondition_s": "s",
    "ssd.run_s": "s",
    "ssd.run_share": "1",
    "ssd.ns_per_event": "ns",
    "ssd.events_per_req": "1",
    "flash.senses_per_read": "1",
    "flash.resets_per_read": "1",
    "flash.set_features_per_read": "1",
    "mechanisms.retry_steps_per_read.PR2": "1",
    "mechanisms.retry_steps_per_read.AR2": "1",
    "mechanisms.retry_steps_per_read.PnAR2": "1",
    "model.reduction_avg_pct.PR2": "%",
    "model.reduction_avg_pct.AR2": "%",
    "model.reduction_avg_pct.PnAR2": "%",
    "model.reduction_max_pct.PR2": "%",
    "model.reduction_max_pct.AR2": "%",
    "model.reduction_max_pct.PnAR2": "%",
    "gc.collections": "count",
    "gc.suspensions": "count",
    "gc.stall_us": "us",
    "array.route_s": "s",
    "array.run_s": "s",
    "array.rescued_reads": "count",
    "array.amp_p99": "x",
    "experiment.parallel_eff": "1",
    "charact.fig5_s": "s",
    "charact.fig11_s": "s",
    "trace.overhead_s": "s",
}


def sweep_keys(workloads, depths):
    return [f"{w}/{m}/{qd}" for w in workloads for qd in depths for m in ("Baseline", "PnAR2")]


class Workload:
    """One named workload: the `repro` processes of one invocation, how many
    consecutive seeds a run cycles through, whether `repro` prints the
    precondition/replay split, the requests (page characterizations for
    `charact`) one invocation submits, and how its output is judged."""

    def __init__(self, name, commands, seeds, replaying, attempted, evaluate):
        self.name = name
        self.commands = commands
        self.seeds = seeds
        self.replaying = replaying
        self.attempted = attempted
        self.evaluate = evaluate


def eval_fig14(outs):
    (out,) = outs
    p = parse.fig14(out)
    problems = []
    good = 0
    for key in FIG14_ROWS:
        norm, p99 = p["norm"].get(key), p["p99"].get(key)
        if norm is None or p99 is None:
            problems.append(f"fig14 row {key} missing")
        elif norm[0] != "1.000":
            problems.append(f"fig14 row {key}: Baseline reads {norm[0]}, not 1.000")
        else:
            good += 1
    extra = set(p["norm"]) - set(FIG14_ROWS)
    if extra:
        problems.append(f"fig14 rows not in the paper matrix: {sorted(extra)}")
    mechs = len(parse.FIG14_MECHANISMS)
    return good * mechs * TRACE_LEN, problems, paper.fig14_errors(p["reductions"]), p["check"]


def sweep_evaluator(expected, redundant):
    def evaluate(outs):
        (out,) = outs
        p = parse.sweep_qd(out)
        problems = []
        completed = 0
        for key in expected:
            cell = p["cells"].get(key)
            if cell is None:
                problems.append(f"cell {key} missing")
                continue
            reads, done = cell["reads"]["n"], cell["reads"]["n"] + cell["writes"]["n"]
            if done != TRACE_LEN:
                problems.append(f"{key}: reads + writes = {done}, submitted {TRACE_LEN}")
            if cell["retried reads"]["n"] > reads:
                problems.append(f"{key}: more retried reads than reads")
            lost = 0
            if redundant:
                red = p["redundancy"].get(key)
                if red is None:
                    problems.append(f"{key}: no wait-for-k row")
                    lost = reads
                else:
                    if red["reads"] != reads:
                        problems.append(f"{key}: wait-for-k reads {red['reads']} != logical reads {reads}")
                        lost = abs(reads - red["reads"])
                    if red["failed"] != "—":
                        problems.append(f"{key}: device {red['failed']} failed")
            completed += max(0, min(done, TRACE_LEN) - lost) if done <= TRACE_LEN else 0
        extra = set(p["cells"]) - set(expected)
        if extra:
            problems.append(f"unexpected cells {sorted(extra)}")
        return completed, problems, paper.sweep_errors(p["avg"]), p["check"]

    return evaluate


def eval_charact(outs):
    fig5 = parse.fig5(outs[0])
    fig11 = parse.fig11(outs[1])
    problems = []
    good = 0
    for key in CHARACT_ROWS:
        for fig, rows in (("fig5", fig5), ("fig11", fig11)):
            if f"{fig}/{key}" in rows:
                good += 1
            else:
                problems.append(f"{fig} row {key} missing")
    return good * CHARACT_PAGES, problems, paper.fig11_errors(fig11), {**fig5, **fig11}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig14",
            [["fig14", "--jobs", str(JOBS)]],
            1,
            True,
            len(FIG14_ROWS) * len(parse.FIG14_MECHANISMS) * TRACE_LEN,
            eval_fig14,
        ),
        Workload(
            "sweep-qd",
            [["sweep-qd", "--queue-depth", "1,16,256", "--jobs", "1"]],
            8,
            True,
            12 * TRACE_LEN,
            sweep_evaluator(sweep_keys(["mds_1", "YCSB-C"], [1, 16, 256]), False),
        ),
        Workload(
            "gc-array",
            [[
                "sweep-qd", "--gc-stress", "--devices", "4", "--placement", "hash",
                "--redundancy", "replicate:2", "--queue-depth", "16", "--jobs", str(JOBS),
            ]],
            16,
            True,
            2 * TRACE_LEN,
            sweep_evaluator(sweep_keys(["gc_stress"], [16]), True),
        ),
        Workload("charact", [["fig5"], ["fig11"]], 1, False, 2 * len(CHARACT_ROWS) * CHARACT_PAGES, eval_charact),
    )
}


class Proc:
    """One finished `repro` process: its output, host wall time, when its
    first stdout line and its precondition/replay line arrived (seconds
    after launch), and its peak resident memory."""

    def __init__(self, argv):
        t0 = time.monotonic()
        p = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, first = [], []

        def pump():
            for line in p.stdout:
                if not first:
                    first.append(time.monotonic() - t0)
                out.append(line)

        reader = threading.Thread(target=pump)
        reader.start()
        err = []
        self.timing_at = None
        for line in p.stderr:
            err.append(line)
            if self.timing_at is None and parse.TIMING_RE.match(line.decode("utf-8", "replace").strip()):
                self.timing_at = time.monotonic() - t0
        reader.join()
        _, status, usage = os.wait4(p.pid, 0)
        self.wall = time.monotonic() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        p.stderr.close()
        self.code = p.returncode
        self.stdout = b"".join(out).decode("utf-8", "replace")
        self.stderr = b"".join(err).decode("utf-8", "replace")
        self.first_line_at = first[0] if first else self.wall
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB


class Invocation:
    """One run of a workload's `repro` processes at one seed, judged."""

    def __init__(self, repro, w, seed):
        self.seed = seed
        self.procs = [Proc([repro, *cmd, "--seed", str(seed)]) for cmd in w.commands]
        self.stdout = "".join(p.stdout for p in self.procs)
        self.wall = sum(p.wall for p in self.procs)
        self.rss_mb = max(p.rss_mb for p in self.procs)
        self.attempted = w.attempted
        self.completed = 0
        self.problems = []
        self.errors = None
        self.check = {}
        self.work_s = self.wall
        # Without a precondition/replay split (charact), setup is launch to
        # the first stdout line: process start-up only, as `repro` prints its
        # heading before any figure work.
        self.setup = statistics.median(p.first_line_at for p in self.procs)
        for p in self.procs:
            if p.code != 0:
                tail = p.stderr.strip().splitlines()[-1:] or [""]
                self.problems.append(f"seed {seed}: repro exited {p.code}: {tail[0]}")
        if self.problems:
            return
        try:
            if w.replaying:
                (p,) = self.procs
                _, replay_ms = parse.timing(p.stderr)
                self.work_s = replay_ms / 1e3
                # Host seconds from launch until replay started: process
                # start, trace synthesis and preconditioning.
                self.setup = max(p.timing_at - self.work_s, 0.0)
            self.completed, problems, self.errors, self.check = w.evaluate([p.stdout for p in self.procs])
            self.problems += [f"seed {seed}: {m}" for m in problems]
        except (parse.ParseError, KeyError) as e:
            self.problems.append(f"seed {seed}: unparsable repro output: {e}")


def cargo_build(args):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    return r.returncode == 0, os.path.join(target, "release")


def host_record():
    def run(argv):
        try:
            r = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            return r.stdout.strip() if r.returncode == 0 else None
        except OSError:
            return None

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": run(["rustc", "--version"]),
        "profile": "release",
        "repro_rev": os.path.isdir(os.path.join(ROOT, ".git"))
        and run(["git", "rev-parse", "--short", "HEAD"])
        or "unknown (not a git checkout)",
    }


def measure(repro, w, seed, seconds):
    """Untraced runs: repeat the invocation, cycling the workload's seeds,
    for `seconds` and at least twice per seed."""
    seeds = [(seed + i) % 2**64 for i in range(w.seeds)]
    start = time.monotonic()
    invs = []
    while True:
        elapsed = time.monotonic() - start
        if len(invs) >= 2 * len(seeds) and elapsed >= seconds or elapsed >= MAX_MEASURE_S:
            break
        invs.append(Invocation(repro, w, seeds[len(invs) % len(seeds)]))
    first = {}
    for inv in invs:
        ref = first.setdefault(inv.seed, inv)
        if inv is not ref and inv.stdout != ref.stdout:
            inv.problems.append(f"seed {inv.seed}: stdout differs from the first run at this seed")
            inv.completed = 0
    for s in seeds:
        if sum(inv.seed == s for inv in invs) < 2:
            invs[0].problems.append(f"seed {s}: not repeated, stdout identity unchecked")
    maes = [paper.mae(inv.errors) for inv in first.values() if inv.errors is not None]
    fidelity_mae_pp = statistics.mean(maes) if maes else 100.0
    attempted = sum(inv.attempted for inv in invs)
    completed = sum(inv.completed for inv in invs)
    metrics = {
        "wall_s": statistics.median(inv.wall for inv in invs),
        "host_req_per_s": statistics.median(inv.completed / inv.work_s for inv in invs),
        "setup_s": statistics.median(inv.setup for inv in invs),
        "peak_rss_mb": statistics.median(inv.rss_mb for inv in invs),
        "fidelity_pct": 100.0 - fidelity_mae_pp,
        "completed_frac": completed / attempted,
    }
    print(
        f"{w.name}: {len(invs)} runs over seeds {seeds[0]}..{seeds[-1]}; "
        f"fidelity_mae_pp {fidelity_mae_pp:.2f}; failed_frac {1 - completed / attempted:.6f}"
    )
    return invs, attempted, completed, metrics


def measure_traced(repro, traced, w, seed, seconds):
    """Traced runs: alternate an untraced `repro` invocation and the traced
    run at the workload seed for `seconds`, cross-checking their simulated
    numbers, and report per-layer metrics. Requests the traced run submits
    but does not complete count as failed."""
    argv = [traced, "--workload", w.name, "--seed", str(seed)]
    start = time.monotonic()
    invs, runs = [], []
    while not runs or time.monotonic() - start < min(seconds, MAX_MEASURE_S):
        inv = Invocation(repro, w, seed)
        invs.append(inv)
        t0 = time.monotonic()
        r = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - t0
        if r.returncode != 0:
            inv.problems.append(f"traced run exited {r.returncode}: {r.stderr.strip()[-200:]}")
            break
        data = json.loads(r.stdout.strip().splitlines()[-1])
        if w.replaying and data["submitted"] != inv.attempted:
            inv.problems.append(f"traced run submitted {data['submitted']} requests, repro {inv.attempted}")
        lost = data["submitted"] - data["completed"]
        if lost:
            inv.problems.append(f"traced run: {lost} of {data['submitted']} requests did not complete")
            inv.completed = max(0, inv.completed - lost)
        if not inv.problems and data["check"] != inv.check:
            diff = sorted(k for k in set(data["check"]) | set(inv.check)
                          if data["check"].get(k) != inv.check.get(k))
            inv.problems.append(f"traced run disagrees with repro stdout on {len(diff)} cells, e.g. {diff[:3]}")
        runs.append((inv, data, wall))
    metrics = {}
    if runs:
        for name in PER_LAYER:
            vals = [d["metrics"][name] for _, d, _ in runs if name in d["metrics"]]
            if vals:
                metrics[name] = statistics.median(vals)
        metrics["experiment.parallel_eff"] = statistics.median(
            d["cell_s"] / (d["workers"] * inv.work_s) if d["workers"] and w.replaying else 0.0
            for inv, d, _ in runs
        )
        metrics["trace.overhead_s"] = statistics.median(t for _, _, t in runs) - statistics.median(
            inv.wall for inv, _, _ in runs
        )
    missing = sorted(set(PER_LAYER) - set(metrics))
    if missing:
        invs[0].problems.append(f"per-layer metrics missing: {missing}")
    return invs, sum(i.attempted for i in invs), sum(i.completed for i in invs), metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit(f"perfbench: no Cargo workspace at {ROOT}; run from a checkout of the repository")
    ok, release = cargo_build(["-p", "repro"])
    repro = os.path.join(release, "repro")
    if not ok or not os.path.isfile(repro):
        sys.exit("perfbench: building repro failed")
    print("host " + json.dumps(host_record(), sort_keys=True))
    if args.trace:
        ok, release = cargo_build(["--manifest-path", os.path.join("perfbench", "traced", "Cargo.toml")])
        traced = os.path.join(release, "perfbench-traced")
        if not ok or not os.path.isfile(traced):
            sys.exit("perfbench: building the traced run failed; per-layer numbers unavailable")
        invs, attempted, completed, metrics = measure_traced(repro, traced, w, args.seed, args.seconds)
        units = PER_LAYER
    else:
        invs, attempted, completed, metrics = measure(repro, w, args.seed, args.seconds)
        units = END_TO_END
    problems = [m for inv in invs for m in inv.problems]
    for m in problems[:20]:
        print(f"problem: {m}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }))


if __name__ == "__main__":
    main()
