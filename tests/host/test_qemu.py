"""QEMU process code-page model."""

import pytest

from repro.disk.geometry import DiskRegion
from repro.errors import HostError
from repro.host.qemu import QemuProcess


def make_qemu(code_pages=16):
    region = DiskRegion("host-root", 0, 10000 * 8)
    return QemuProcess(region, base_page=100, code_pages=code_pages)


def test_cursor_walks_round_robin():
    qemu = make_qemu(4)
    assert qemu.next_touches(3) == [0, 1, 2]
    assert qemu.next_touches(3) == [3, 0, 1]


def test_next_touches_capped_at_code_size():
    qemu = make_qemu(4)
    assert len(qemu.next_touches(10)) == 4


def test_no_code_pages():
    region = DiskRegion("host-root", 0, 80)
    qemu = QemuProcess(region, 0, 0)
    assert qemu.next_touches(5) == []


def test_residency_tracking():
    qemu = make_qemu()
    assert not qemu.is_resident(3)
    qemu.mark_resident(3)
    assert qemu.is_resident(3)
    qemu.evict(3)
    assert not qemu.is_resident(3)


def test_evict_clears_accessed():
    qemu = make_qemu()
    qemu.mark_resident(2)
    qemu.accessed.add(2)
    qemu.evict(2)
    assert 2 not in qemu.accessed


def test_sector_of_uses_base_offset():
    qemu = make_qemu()
    assert qemu.sector_of(0) == 100 * 8
    assert qemu.sector_of(3) == 103 * 8


def test_sector_of_bounds():
    qemu = make_qemu(4)
    with pytest.raises(HostError):
        qemu.sector_of(4)


def test_fault_cluster_skips_resident():
    qemu = make_qemu(16)
    qemu.mark_resident(1)
    cluster = qemu.fault_cluster(0, readahead=4)
    assert cluster == [0, 2, 3]


def test_fault_cluster_clipped_at_end():
    qemu = make_qemu(10)
    cluster = qemu.fault_cluster(9, readahead=8)
    assert cluster == [8, 9]
