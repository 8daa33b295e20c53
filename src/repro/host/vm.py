"""Per-VM host-side state.

A :class:`Vm` bundles everything the hypervisor knows about one guest:
the EPT, the logical contents of every guest page, host swap slots, the
reclaim scanner, the QEMU process model, and (optionally) the VSwapper
instance.  The guest kernel hangs off ``vm.guest`` but the hypervisor
never reaches into it -- the host is uncooperative by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import VmConfig
from repro.core.vswapper import VSwapper
from repro.disk.image import VirtualDiskImage
from repro.mem.ept import Ept
from repro.mem.page import ZERO, PageContent
from repro.mem.reclaim import ReclaimScanner
from repro.metrics.counters import Counters
from repro.host.qemu import QemuProcess
from repro.sim.costs import CostAccumulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.guest.kernel import GuestKernel


#: Scanner key prefix marking hypervisor code pages (guest pages are
#: plain ints).
CODE_KEY = "code"


def code_key(index: int) -> tuple[str, int]:
    """Scanner key for QEMU code page ``index``."""
    return (CODE_KEY, index)


class Vm:
    """Host-side state of one virtual machine."""

    def __init__(self, config: VmConfig, vm_id: int,
                 image: VirtualDiskImage, qemu: QemuProcess,
                 named_fraction: float, *, reclaim_noise: float = 0.0,
                 rng=None) -> None:
        config.validate()
        self.cfg = config
        self.vm_id = vm_id
        self.name = config.name
        self.image = image
        self.qemu = qemu

        self.ept = Ept(config.guest.memory_pages)
        #: Logical bytes of every guest page (authoritative regardless
        #: of where the page currently lives).  Missing => ZERO.
        self.content: dict[int, PageContent] = {}
        #: gpa -> host swap slot for host-swapped pages.
        self.swap_slots: dict[int, int] = {}
        #: Swap-out writes not yet flushed to disk: the page content is
        #: still in the host's swap cache, so a prompt refault is free.
        self.pending_swap: dict[int, int] = {}
        #: Swap-readahead pages resident in host memory but not yet
        #: EPT-mapped (gpa -> retained slot).  Clean: dropping them
        #: costs nothing; a guest touch promotes them (minor fault) and
        #: only *then* does the no-dirty-bit pessimism kick in.
        #: Insertion-ordered => FIFO drop order.
        self.swap_cache: dict[int, int] = {}
        #: Hardware-dirty-bit ablation: gpa -> retained swap slot whose
        #: copy is still identical to the in-memory page.
        self.swap_clean: dict[int, int] = {}
        self.ballooned: set[int] = set()
        #: GPAs pinned for in-flight virtual I/O (DMA targets); host
        #: reclaim must not evict them mid-transfer.
        self.io_pinned: set[int] = set()

        # ``rebuild_vm_on_host`` replaces ``self.qemu`` on migration but
        # not this binding: the hand then tests a migrated VM's code
        # pages against the source process's accessed set, which
        # nothing sets any more.
        self.scanner = ReclaimScanner(
            self.ept._accessed, present=self.ept._present,
            code_accessed=qemu.accessed, pinned=self.io_pinned,
            named_fraction=named_fraction,
            noise=reclaim_noise, noise_rng=rng)
        self.vswapper = VSwapper(config.vswapper)
        #: Swap Mapper / False Reads Preventer shortcuts (None when
        #: disabled).  VSwapper builds both exactly once at init and a
        #: breaker trip only *disables* the mapper (never replaces it),
        #: so plain attributes are safe -- and much cheaper than
        #: properties on the fault path.
        self.mapper = self.vswapper.mapper
        self.preventer = self.vswapper.preventer
        #: cgroup-style cap, if configured.
        self.resident_limit: int | None = config.resident_limit_pages

        self.counters = Counters()
        self.costs = CostAccumulator()
        #: Set when a fault circuit breaker dropped this VM to baseline
        #: swapping (the Section 4.1 fallback); reported on RunResult.
        self.degraded = False
        #: Fault-stall overlap factor, set by the driver from the
        #: workload's thread count (asynchronous page faults).
        self.fault_overlap = 1.0
        #: Attached by the machine right after guest construction.
        self.guest: "GuestKernel | None" = None
        #: Owning cluster host; set on placement, rebound on migration.
        #: ``None`` while orphaned by a host crash (evacuation pending).
        self.host = None
        #: Set when host-failure recovery gave the VM up for lost; its
        #: driver then reports the workload as crashed (a typed figure
        #: hole, never a silent drop).
        self.lost = False
        #: Stall seconds to charge to the VM's next operation (live
        #: migration downtime lands here; the driver drains it).
        self.pending_stall = 0.0

    def take_pending_stall(self) -> float:
        """Drain the out-of-band stall charge (migration downtime)."""
        stall, self.pending_stall = self.pending_stall, 0.0
        return stall

    # ------------------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        """Host frames charged to this VM (guest pages + QEMU text +
        swap-cache pages brought in by readahead)."""
        return (self.ept.resident_pages + len(self.qemu.resident)
                + len(self.swap_cache))

    def content_of(self, gpa: int) -> PageContent:
        """Logical content of ``gpa`` (ZERO when never written)."""
        return self.content.get(gpa, ZERO)

    def set_content(self, gpa: int, content: PageContent) -> None:
        """Record the new logical content of ``gpa``."""
        if content is ZERO:  # ZeroContent is a singleton
            self.content.pop(gpa, None)
        else:
            self.content[gpa] = content

    def refresh_gauges(self) -> None:
        """Update gauge-style counters from live state."""
        mapper = self.mapper
        if mapper is not None:
            self.counters.mapper_tracked_pages = mapper.tracked_pages
            self.counters.mapper_tracked_peak = max(
                self.counters.mapper_tracked_peak, mapper.tracked_pages)
