"""One benchmark run in a fresh process; prints one JSON line.

Modes:

* ``timed``: set up, step the workload one closed-loop step at a
  time, reduce it to its canonical report and check it.  Reports
  host times, peak RSS and the report digest.
* ``traced``: the same, with the span recorder hooked around the
  layers' public calls (see ``spans.py``).
* ``reference``: the repository's own entry point on the same config,
  untimed; reports only its digest.

``--spawn-t`` is the parent's ``time.monotonic()`` just before it
started this process, so set-up time includes interpreter start-up.

A timed or traced run also times a probe: a fixed slice of interpreter
work of the benchmark's own, none of the program's, whose time changes
only with the speed of the host.  It runs during set-up (every
``SETUP_PROBE_INTERVAL_S``, from a timer signal; a traced run times
``SETUP_PROBE_SLICES`` slices before set-up instead) and once after
every step.  The phases' times leave the probe out, and the runner
scales each phase to the host speed measured alongside it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import drives  # noqa: E402  (after the path fix-up)
from spans import STEP, SpanRecorder  # noqa: E402

#: Every package a workload drives; imported up front so set-up time
#: shows the whole import cost the same way on every workload.
PACKAGES = ("repro", "repro.cloudmgr", "repro.eop", "repro.fleet",
            "repro.hypervisor", "repro.persistence", "repro.resilience",
            "repro.workloads")
#: Loops of one probe slice: about 3 ms on a 2-vCPU x86-64 cloud host.
PROBE_LOOPS = 20000
#: Seconds between probe slices during the set-up of a timed run.
SETUP_PROBE_INTERVAL_S = 0.05
#: Probe slices timed before the set-up of a traced run.
SETUP_PROBE_SLICES = 20
_PROBE_TABLE = {i: i * 0.5 for i in range(64)}


def _mb(kilobytes: int) -> float:
    return kilobytes / 1024.0


def probe_slice() -> float:
    """Seconds one fixed slice of interpreter work takes.

    It allocates no container object, so it never triggers a garbage
    collection: its time follows the host's speed, not the size of the
    program's heap.
    """
    table = _PROBE_TABLE
    total = 0.0
    begin = time.perf_counter()
    for i in range(PROBE_LOOPS):
        total += table[i & 63] * 1.0001 + (i % 7)
    return time.perf_counter() - begin


def _import_packages() -> None:
    import importlib

    for package in PACKAGES:
        importlib.import_module(package)


def run_reference(workload: str, config) -> dict:
    _import_packages()
    reference = drives.WORKLOADS[workload][2]
    return {"digest": drives.digest_of(drives.canonical(reference(config)))}


def _timed(func, probe_s: list) -> float:
    """Seconds ``func`` took, less the probe slices run meanwhile."""
    begin, probed = time.perf_counter(), sum(probe_s)
    func()
    return time.perf_counter() - begin - (sum(probe_s) - probed)


def run_drive(workload: str, config, spawn_t: float, traced: bool) -> dict:
    build = drives.WORKLOADS[workload][1]
    if traced:
        # Before set-up: slices inside it would count in its spans.
        setup_probe_s = [probe_slice() for _ in range(SETUP_PROBE_SLICES)]
        recorder = SpanRecorder()
        import_s = _timed(_import_packages, [])
        recorder.install_layer_hooks()
        drive = recorder.span("core.build", build, config, recorder)
    else:
        # A slice every SETUP_PROBE_INTERVAL_S of set-up, run by a timer
        # signal, so that the slices see the host as set-up does.
        setup_probe_s = [probe_slice()]
        handler = signal.signal(
            signal.SIGALRM, lambda *_: setup_probe_s.append(probe_slice()))
        signal.setitimer(signal.ITIMER_REAL, SETUP_PROBE_INTERVAL_S,
                         SETUP_PROBE_INTERVAL_S)
        try:
            recorder = None
            import_s = _timed(_import_packages, setup_probe_s)
            drive = build(config)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
    import numpy

    try:
        setup_s = time.monotonic() - spawn_t - sum(setup_probe_s)
        step_s = []
        step_probe_s = []
        clock = time.perf_counter
        step = (drive.step if recorder is None
                else lambda index: recorder.span(STEP, drive.step, index))
        for index in range(drive.n_steps):
            begin = clock()
            step(index)
            step_s.append(clock() - begin)
            step_probe_s.append(probe_slice())

        def snapshot():
            report = drive.report()
            return report, drives.canonical(report)

        began = time.perf_counter()
        report, text = (snapshot() if recorder is None
                        else recorder.span("persistence.snapshot", snapshot))
        snapshot_s = time.perf_counter() - began
        problems = drive.check(report)
        facts = drive.facts()
    finally:
        drive.close()
    result = {
        "digest": drives.digest_of(text),
        "problems": problems,
        "import_s": import_s,
        "setup_s": setup_s,
        "node_seconds": drive.node_seconds,
        "step_s": step_s,
        "snapshot_s": snapshot_s,
        "snapshot_bytes": len(text),
        "peak_rss_mb": _mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "children_peak_rss_mb": _mb(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        "numpy": numpy.__version__,
        "setup_probe_s": setup_probe_s,
        "step_probe_s": step_probe_s,
        **facts,
    }
    if recorder is not None:
        result["trace"] = recorder.as_dict()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(drives.WORKLOADS))
    parser.add_argument("--config", required=True,
                        help="the workload config as JSON")
    parser.add_argument("--mode", required=True,
                        choices=("timed", "traced", "reference"))
    parser.add_argument("--spawn-t", type=float, required=True)
    args = parser.parse_args(argv)
    config = json.loads(args.config)
    try:
        if args.mode == "reference":
            result = run_reference(args.workload, config)
        else:
            result = run_drive(args.workload, config, args.spawn_t,
                               traced=args.mode == "traced")
    except Exception:  # reported to the runner, which counts a failure
        result = {"error": traceback.format_exc()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
