"""Machine assembly and lifecycle."""

import pytest

from repro.config import MachineConfig, VSwapperConfig
from repro.errors import ConfigError
from repro.cluster.host import build_latency_model
from repro.machine import Machine
from repro.disk.latency import HddLatencyModel, SsdLatencyModel
from repro.config import DiskConfig
from tests.conftest import small_machine_config, small_vm_config


def test_default_machine_builds():
    machine = Machine(MachineConfig())
    assert machine.now == 0.0
    assert machine.frames.free > 0


def test_create_vm_wires_guest_and_hypervisor(machine):
    vm = machine.create_vm(small_vm_config())
    assert vm.guest is not None
    assert vm in machine.hypervisor.vms
    assert vm.image.size_blocks > 0


def test_vm_ids_and_regions_distinct(machine):
    a = machine.create_vm(small_vm_config(name="a"))
    b = machine.create_vm(small_vm_config(name="b"))
    assert a.vm_id != b.vm_id
    assert a.image.region.base_sector != b.image.region.base_sector
    assert a.qemu.base_page != b.qemu.base_page


def test_latency_model_selection():
    assert isinstance(build_latency_model(DiskConfig()), HddLatencyModel)
    assert isinstance(
        build_latency_model(DiskConfig(kind="ssd")), SsdLatencyModel)
    with pytest.raises(ConfigError):
        build_latency_model(DiskConfig(kind="tape"))


def test_static_balloon_applied_at_creation(machine):
    config = small_vm_config()
    config = type(config)(**{**config.__dict__,
                             "static_balloon_pages": 256})
    vm = machine.create_vm(config)
    assert vm.guest.balloon_size == 256


def test_boot_guest_resets_measurement_state(machine):
    vm = machine.create_vm(small_vm_config(resident_limit_mib=4))
    machine.boot_guest(vm)
    assert vm.counters.snapshot()["host_evictions"] == 0
    assert vm.costs.total() == 0.0
    assert machine.disk.stats.requests == 0
    # ...but the physical state (stragglers in swap) persists.
    assert len(vm.swap_slots) > 0
    assert len(vm.guest.free_list) > 0


def test_boot_guest_fraction(machine):
    vm_full = machine.create_vm(small_vm_config(name="f"))
    vm_half = machine.create_vm(small_vm_config(name="h"))
    machine.boot_guest(vm_full, fraction=1.0)
    machine.boot_guest(vm_half, fraction=0.3)
    assert len(vm_half.content) < len(vm_full.content)


def test_aggregate_counters(machine):
    a = machine.create_vm(small_vm_config(name="a"))
    b = machine.create_vm(small_vm_config(name="b"))
    a.counters.disk_ops = 3
    b.counters.disk_ops = 4
    assert machine.aggregate_counters()["disk_ops"] == 7


def test_run_until(machine):
    machine.engine.schedule(5.0, lambda: None)
    machine.run(until=2.0)
    assert machine.now == 2.0


def test_host_root_region_bounds_vm_count():
    config = small_machine_config(
        hypervisor_code_pages=Machine.HOST_ROOT_PAGES // 2 + 1)
    machine = Machine(config)
    machine.create_vm(small_vm_config(name="first"))
    with pytest.raises(ConfigError):
        machine.create_vm(small_vm_config(name="second"))


def test_boot_guest_is_repeatable(machine):
    vm = machine.create_vm(small_vm_config(resident_limit_mib=4))
    machine.boot_guest(vm)
    swapped_first = len(vm.swap_slots)
    machine.boot_guest(vm)  # second uptime epoch
    assert len(vm.swap_slots) >= swapped_first // 2
    assert vm.costs.total() == 0.0
