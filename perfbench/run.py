"""Campaign benchmark: one workload, fresh child processes, medians.

Run from the root of a checkout::

    python3 perfbench/run.py --workload eop-storm --seed 1 --seconds 20 --trace 0

The runner makes the workload's config from ``--seed``, then spawns
one child process at a time (``child.py``): first the repository's own
entry point on that config (the fidelity reference), with ``--trace
1`` then one traced run, then untraced timed runs for ``--seconds``
(at least three runs).  Every run's report digest must equal
the reference's, and every run's checks must pass; a run that raises,
fails a check or disagrees on the digest counts as failed.

Every metric is host time or host memory; simulated statistics repeat
exactly for a seed, so they are checks, not metrics.  The end-to-end
times are scaled to a reference host speed by a probe each child times
alongside its phases (``scaled``; see ``README.md``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  The lines before it print
the run's metadata and every metric with its unit, and the whole record
(per-run values and the span table) goes to ``.perfbench/`` in the
checkout.  See ``README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import drives  # noqa: E402  (after the path fix-up)

#: Reference time of one probe slice (``child.probe_slice``), about its
#: mean on the 2-vCPU x86-64 cloud host the benchmark was tuned on.
PROBE_REF_S = 0.003
#: Fewest untraced timed runs, however short ``--seconds`` is.
MIN_TIMED_RUNS = 3
#: The whole invocation must end well inside three minutes.
BUDGET_S = 170.0
OUTPUT_DIR = ".perfbench"


def spawn(root: str, workload: str, config: Dict[str, object], mode: str,
          timeout_s: float) -> Dict[str, object]:
    """One child run; returns its JSON result or an ``error`` entry."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    # One BLAS thread per process: the fleet workers already use both
    # cores, and thread pools fighting them would only add noise.
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env.setdefault("OMP_NUM_THREADS", "1")
    # The repository's determinism contract holds under a pinned hash
    # seed: VM application traces are seeded from ``hash(vm.name)``.
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--config", json.dumps(config),
               "--mode", mode, "--spawn-t", repr(time.monotonic())]
    # A process group of its own, so that a child stuck past its deadline
    # is killed together with the fleet workers it forked.
    child = subprocess.Popen(command, cwd=root, env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return {"mode": mode, "error": f"timed out after {timeout_s:.0f} s"}
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"error": f"exit {child.returncode}: {stderr[-2000:]}"}
    result["mode"] = mode
    return result


def judge(runs: List[Dict[str, object]]) -> int:
    """Mark each run ``ok``; returns the number of failed runs."""
    reference = next((run.get("digest") for run in runs
                      if run["mode"] == "reference" and "error" not in run),
                     None)
    failed = 0
    for run in runs:
        problems = list(run.get("problems", []))
        if "error" in run:
            problems.append(str(run["error"]).strip().splitlines()[-1])
        elif reference is None:
            problems.append("no reference digest to compare against")
        elif run.get("digest") != reference:
            problems.append("report digest differs from the reference")
        run["problems"] = problems
        run["ok"] = not problems
        failed += not run["ok"]
    return failed


def cost_growth(timed: List[Dict[str, object]]) -> float:
    """Median step time of the last quarter of steps over the first.

    Each quarter pools the steps of every timed run, each step scaled
    by the mean probe slice of its run's quarter: the quarters are
    seconds apart and the host's speed moves between them, and a
    quarter of one run holds only a few steps.
    """
    def quarter(part: slice) -> float:
        pooled = []
        for run in timed:
            probe = run["step_probe_s"][part]
            pooled += [step * len(probe) / sum(probe)
                       for step in run["step_s"][part]]
        return median(pooled)

    n = max(1, len(timed[0]["step_s"]) // 4)
    return quarter(slice(-n, None)) / quarter(slice(None, n))


def step_tail(step_s: List[float]) -> Tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    steps beyond it."""
    ordered = sorted(step_s)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def scaled(run: Dict[str, object]) -> Dict[str, float]:
    """A run's phase times in reference-host seconds.

    Each phase's host time is multiplied by ``PROBE_REF_S`` over the
    mean probe slice timed alongside it: set-up by the slices timed
    during it, stepping and the final report by the slices timed after
    each step.
    """
    def factor(probe: List[float]) -> float:
        return PROBE_REF_S * len(probe) / sum(probe)

    step = factor(run["step_probe_s"])
    setup_s = run["setup_s"] * factor(run["setup_probe_s"])
    stepping_s = sum(run["step_s"]) * step
    return {"setup_s": setup_s, "stepping_s": stepping_s,
            "wall_s": setup_s + stepping_s + run["snapshot_s"] * step}


def end_to_end(timed: List[Dict[str, object]], attempted: int,
               failed: int) -> Dict[str, Tuple[float, str]]:
    times = [scaled(r) for r in timed]
    return {
        "setup_s": (median([t["setup_s"] for t in times]), "s"),
        "wall_s": (median([t["wall_s"] for t in times]), "s"),
        "sim_node_s_per_s": (median([r["node_seconds"] / t["stepping_s"]
                                      for r, t in zip(timed, times)]),
                             "node-s/s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in timed]), "MB"),
        "pass_fraction": ((attempted - failed) / attempted, "fraction"),
    }


def per_layer(traced: Dict[str, object], timed: List[Dict[str, object]]
              ) -> Dict[str, Tuple[float, str]]:
    trace = traced["trace"]
    spans = trace["spans"]
    counters = trace["counters"]

    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    admitted, arrivals = traced.get("admitted", 0), traced.get("arrivals", 0)
    tails = [step_tail(r["step_s"]) for r in timed]
    # On the fleet the step is ``FleetCampaign.run``: its self time is
    # the parent's control work around the exchange.
    fleet = calls("fleet.exchange") > 0
    return {
        "core.import_s": (median([r["import_s"] for r in timed]), "s"),
        "core.build_s": (own("core.build"), "s"),
        "daemons.stresslog_characterize_s":
            (own("daemons.stresslog_characterize"), "s"),
        "daemons.stresslog_characterize_calls":
            (calls("daemons.stresslog_characterize"), "count"),
        "daemons.healthlog_snapshot_s":
            (own("daemons.healthlog_snapshot"), "s"),
        "hardware.core_model_s": (own("hardware.core_model"), "s"),
        "hardware.core_model_calls": (calls("hardware.core_model"), "count"),
        "hardware.cache_power_s": (own("hardware.cache_power"), "s"),
        "hardware.ledger_read_s": (own("hardware.ledger_read"), "s"),
        "hardware.ledger_reads": (calls("hardware.ledger_read"), "count"),
        "hardware.ledger_records_scanned":
            (counters.get("hardware.ledger_records_scanned", 0), "count"),
        "hardware.ledger_write_s": (own("hardware.ledger_write"), "s"),
        "hardware.ledger_writes": (calls("hardware.ledger_write"), "count"),
        "hardware.ledger_records_final":
            (traced["ledger_records_final"], "count"),
        "eop.governor_step_self_s": (own("eop.governor_step"), "s"),
        "hypervisor.error_hits_critical_s":
            (own("hypervisor.error_hits_critical"), "s"),
        "hypervisor.error_hits_critical_calls":
            (calls("hypervisor.error_hits_critical"), "count"),
        "hypervisor.tick_self_s": (own("hypervisor.tick"), "s"),
        "hypervisor.ticks": (calls("hypervisor.tick"), "count"),
        "cloudmgr.controller_self_s": (own("cloudmgr.controller"), "s"),
        "cloudmgr.node_step_self_s": (own("cloudmgr.node_step"), "s"),
        "cloudmgr.admission_ratio":
            (admitted / arrivals if arrivals else 0.0, "fraction"),
        "resilience.chaos_apply_s": (own("resilience.chaos_apply"), "s"),
        "persistence.snapshot_s": (own("persistence.snapshot"), "s"),
        "persistence.snapshot_bytes": (traced["snapshot_bytes"], "bytes"),
        "fleet.plan_s": (own("fleet.plan"), "s"),
        "fleet.chaos_compile_s": (own("fleet.chaos_compile"), "s"),
        "fleet.exchange_s": (own("fleet.exchange"), "s"),
        "fleet.control_s": (own("campaign.step") if fleet else 0.0, "s"),
        "fleet.report_s": (own("fleet.report"), "s"),
        "fleet.worker_peak_rss_mb": (traced["children_peak_rss_mb"], "MB"),
        "campaign.steps": (len(timed[0]["step_s"]), "count"),
        "campaign.cost_growth": (cost_growth(timed), "ratio"),
        "campaign.step_ms_p50": (median([1e3 * median(r["step_s"])
                                          for r in timed]), "ms"),
        "campaign.step_ms_tail": (median([1e3 * v for _, v in tails]),
                                  "ms"),
        "campaign.step_tail_pct": (tails[0][0], "%"),
        "trace.overhead_ratio":
            (scaled(traced)["wall_s"]
             / median([scaled(r)["wall_s"] for r in timed]), "ratio"),
        "trace.step_layer_share": (step_layer_share(trace), "fraction"),
    }


def step_layer_share(trace: Dict[str, object]) -> float:
    """Share of the per-step spans' time covered by layer spans."""
    return (trace["step_nested_self_s"]
            / trace["spans"]["campaign.step"]["total_s"])


def step_share_problem(traced: Dict[str, object], floor: float
                       ) -> Optional[str]:
    """The named layer spans must cover at least ``floor`` of the
    per-step spans' host time."""
    share = step_layer_share(traced["trace"])
    if share < floor:
        return (f"layer spans cover {share:.3f} of the step time, "
                f"below the workload's floor of {floor}")
    return None


def metadata(root: str, workload: str, seed: int,
             runs: List[Dict[str, object]]) -> Dict[str, object]:
    src_lines = 0
    for base, _dirs, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    src_lines += handle.read().count(b"\n")
    done = next((r for r in runs if "numpy" in r), {})
    return {"workload": workload, "seed": seed, "git_sha": git_sha(root),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": done.get("numpy"), "src_lines": src_lines}


def git_sha(root: str) -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git; None
    when the checkout is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Campaign benchmark (run from the checkout root).")
    parser.add_argument("--workload", required=True,
                        choices=list(drives.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the checkout root",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    config = drives.WORKLOADS[args.workload][0](args.seed)

    def remaining() -> float:
        return BUDGET_S - (time.monotonic() - started)

    runs: List[Dict[str, object]] = []

    def run(mode: str) -> None:
        runs.append(spawn(root, args.workload, config, mode, remaining()))

    run("reference")
    if args.trace:
        run("traced")
    # The measuring window opens once the reference (and trace) ran.
    deadline = time.monotonic() + args.seconds
    timed = 0
    while (timed < MIN_TIMED_RUNS or time.monotonic() < deadline) \
            and remaining() > 0:
        run("timed")
        timed += 1

    failed = judge(runs)
    traced = next((r for r in runs if r["mode"] == "traced"), None)
    if traced is not None and traced["ok"]:
        problem = step_share_problem(traced,
                                     drives.WORKLOADS[args.workload][3])
        if problem:
            traced["problems"].append(problem)
            traced["ok"] = False
            failed += 1
    good = [r for r in runs if r["mode"] == "timed" and r["ok"]]
    correct = failed == 0 and bool(good)
    if not good or (args.trace and not traced["ok"]):
        metrics = {}
    elif args.trace:
        metrics = per_layer(traced, good)
    else:
        metrics = end_to_end(good, len(runs), failed)

    meta = metadata(root, args.workload, args.seed, runs)
    meta["config"] = config
    record = {"meta": meta, "correct": correct, "attempted": len(runs),
              "failed": failed,
              "metrics": {name: value for name, (value, _) in metrics.items()},
              "runs": runs}
    os.makedirs(os.path.join(root, OUTPUT_DIR), exist_ok=True)
    out = os.path.join(root, OUTPUT_DIR, f"{args.workload}-seed{args.seed}"
                       f"-trace{args.trace}.json")
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1)

    print("# " + json.dumps({k: v for k, v in meta.items() if k != "config"}))
    for run in runs:
        for problem in run["problems"]:
            print(f"# FAILED {run['mode']} run: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": len(runs), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
