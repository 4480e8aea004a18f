"""Tests for the VM lifecycle."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.exceptions import ConfigurationError
from repro.hypervisor.vm import VirtualMachine, VMState, make_vm_fleet
from repro.workloads import ldbc_workload, spec_workload

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Writes a short ``repro eop`` report to argv[1] and prints a digest of
#: a fleet VM's application-memory trace.
_HASH_SEED_PROBE = """
import hashlib, sys
from repro.cli import main
from repro.hypervisor import make_vm_fleet
from repro.workloads import ldbc_workload
main(["--seed", "3", "eop", "--duration", "300", "--vms", "2",
      "--inject", "core2:60:120:0.5", "--report-json", sys.argv[1]])
vm = make_vm_fleet(ldbc_workload(), 2)[1]
print(hashlib.sha256(vm.application_memory_mb().tobytes()).hexdigest())
"""


@pytest.fixture
def vm():
    return VirtualMachine(name="vm0",
                          workload=spec_workload("bzip2",
                                                 duration_cycles=1e9))


class TestLifecycle:
    def test_starts_pending(self, vm):
        assert vm.state is VMState.PENDING
        assert not vm.is_active

    def test_start_then_run_to_completion(self, vm):
        vm.start()
        assert vm.state is VMState.RUNNING
        done = vm.execute(5e8)
        assert not done
        assert vm.progress == pytest.approx(0.5)
        done = vm.execute(6e8)
        assert done
        assert vm.state is VMState.COMPLETED

    def test_cannot_start_twice(self, vm):
        vm.start()
        with pytest.raises(ConfigurationError):
            vm.start()

    def test_cannot_execute_when_not_running(self, vm):
        with pytest.raises(ConfigurationError):
            vm.execute(1e8)

    def test_pause_resume(self, vm):
        vm.start()
        vm.pause()
        assert vm.state is VMState.PAUSED
        with pytest.raises(ConfigurationError):
            vm.execute(1e8)
        vm.resume()
        assert vm.state is VMState.RUNNING

    def test_fail_and_restart_resets_progress(self, vm):
        vm.start()
        vm.execute(5e8)
        vm.fail()
        assert vm.state is VMState.FAILED
        vm.restart()
        assert vm.state is VMState.RUNNING
        assert vm.executed_cycles == 0.0
        assert vm.restarts == 1

    def test_fail_on_completed_is_noop(self, vm):
        vm.start()
        vm.execute(2e9)
        vm.fail()
        assert vm.state is VMState.COMPLETED

    def test_restart_requires_failed(self, vm):
        vm.start()
        with pytest.raises(ConfigurationError):
            vm.restart()

    def test_progress_capped_at_one(self, vm):
        vm.start()
        vm.execute(5e9)
        assert vm.progress == 1.0


class TestMemoryUsage:
    def test_memory_includes_guest_os(self):
        vm = VirtualMachine(name="x", workload=ldbc_workload(),
                            guest_os_mb=500.0)
        assert vm.memory_usage_mb(progress=0.0) >= 500.0

    def test_memory_grows_during_load_phase(self):
        vm = VirtualMachine(name="x", workload=ldbc_workload())
        early = vm.memory_usage_mb(progress=0.01)
        loaded = vm.memory_usage_mb(progress=0.5)
        assert loaded > early

    def test_negative_guest_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualMachine(name="x", workload=ldbc_workload(),
                           guest_os_mb=-1.0)


class TestFleet:
    def test_fleet_names_and_seeds_differ(self):
        fleet = make_vm_fleet(ldbc_workload(), 4)
        assert [vm.name for vm in fleet] == ["vm0", "vm1", "vm2", "vm3"]
        traces = [tuple(vm.application_memory_mb(20)) for vm in fleet]
        assert len(set(traces)) == 4

    def test_fleet_guest_memory(self):
        fleet = make_vm_fleet(ldbc_workload(), 2, guest_os_mb=1024.0)
        assert all(vm.guest_os_mb == 1024.0 for vm in fleet)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            make_vm_fleet(ldbc_workload(), 0)

    def test_vm_validation(self):
        with pytest.raises(ConfigurationError):
            VirtualMachine(name="", workload=ldbc_workload())
        with pytest.raises(ConfigurationError):
            VirtualMachine(name="x", workload=ldbc_workload(), vcpus=0)


class TestHashSeedIndependence:
    def test_reports_and_traces_ignore_pythonhashseed(self, tmp_path):
        """Two processes with different str hashing agree byte for byte."""
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONPATH"] = (str(_REPO_ROOT / "src") + os.pathsep
                                 + env.get("PYTHONPATH", ""))
            env["PYTHONHASHSEED"] = hash_seed
            report = tmp_path / f"eop-{hash_seed}.json"
            done = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_PROBE, str(report)],
                check=True, env=env, cwd=_REPO_ROOT, capture_output=True,
                text=True, timeout=240)
            trace_digest = done.stdout.strip().splitlines()[-1]
            outputs.append((report.read_bytes(), trace_digest))
        assert outputs[0] == outputs[1]
