"""Per-VM host state."""

from repro.mem.lru import ClockList
from repro.mem.page import ZERO, AnonContent
from tests.conftest import small_vm_config
from repro.config import VSwapperConfig


def test_content_defaults_to_zero(vm):
    assert vm.content_of(0x123) is ZERO


def test_set_content_roundtrip(vm):
    content = AnonContent.fresh()
    vm.set_content(1, content)
    assert vm.content_of(1) == content


def test_set_content_zero_prunes_entry(vm):
    vm.set_content(1, AnonContent.fresh())
    vm.set_content(1, ZERO)
    assert 1 not in vm.content
    assert vm.content_of(1) is ZERO


def test_resident_counts_code_and_swap_cache(machine, vm):
    base = vm.resident_pages
    machine.hypervisor.touch_page(vm, 0x10)
    assert vm.resident_pages == base + 1
    vm.qemu.mark_resident(0)
    assert vm.resident_pages == base + 2
    vm.swap_cache[0x99] = 5
    assert vm.resident_pages == base + 3


def test_mapper_preventer_shortcuts(machine):
    baseline = machine.create_vm(small_vm_config(name="b"))
    assert baseline.mapper is None
    assert baseline.preventer is None
    full = machine.create_vm(small_vm_config(
        name="f", vswapper=VSwapperConfig.full()))
    assert full.mapper is not None
    assert full.preventer is not None


def test_referenced_dispatches_to_code_pages(vm):
    # A code key is tested (and cleared) against QEMU's accessed set.
    vm.qemu.accessed.add(3)
    clock = ClockList()
    clock.add(("code", 3))
    assert vm.scanner.scan(clock, 1) == ([("code", 3)], 2)
    assert 3 not in vm.qemu.accessed


def test_referenced_for_absent_gpa_is_false(vm):
    # A stale accessed bit on a non-present gpa earns no second chance.
    vm.ept._accessed[0x777] = 1
    clock = ClockList()
    clock.add(0x777)
    assert vm.scanner.scan(clock, 1) == ([0x777], 1)
    assert vm.ept._accessed[0x777] == 1


def test_dma_pin_blocks_eviction(vm):
    vm.io_pinned.add(0x10)
    clock = ClockList()
    clock.add(0x10)
    clock.add(("code", 1))
    victims, _ = vm.scanner.scan(clock, 2)
    assert victims == [("code", 1)]  # the pin covers gpas only
    # Even the escalation pass leaves a pinned page alone.
    assert vm.scanner.scan(clock, 1, False) == ([], 2)


def test_refresh_gauges_tracks_mapper(machine):
    vm = machine.create_vm(small_vm_config(
        vswapper=VSwapperConfig.mapper_only()))
    vm.mapper.track(1, 100)
    vm.refresh_gauges()
    assert vm.counters.mapper_tracked_pages == 1
    assert vm.counters.mapper_tracked_peak == 1
    vm.mapper.drop_gpa(1)
    vm.refresh_gauges()
    assert vm.counters.mapper_tracked_pages == 0
    assert vm.counters.mapper_tracked_peak == 1


def test_hypervisor_satisfies_host_services(machine):
    from repro.host.interface import HostServices
    assert isinstance(machine.hypervisor, HostServices)
