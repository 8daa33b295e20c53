"""The guest kernel: an unmodified OS as the hypervisor sees one.

This facade interprets workload operations (:mod:`repro.sim.ops`)
against the guest's page cache, anonymous memory, its own LRU reclaim,
its own swap device, and the balloon driver.  All actual memory access
and disk traffic is delegated to the host through a narrow interface
(``touch_page`` / ``overwrite_page`` / ``virtio_read`` /
``virtio_write`` / ``balloon_pin`` / ``balloon_unpin``), because from
the host's perspective those are the *only* observable guest actions --
the semantic gap VSwapper's Mapper bridges by watching exactly this
traffic.
"""

from __future__ import annotations

from typing import Iterable

from repro.config import GuestConfig, GuestOsKind
from repro.errors import GuestError, GuestOomKill
from repro.guest.anon import GuestAnonMemory, PageLocation
from repro.guest.filesystem import GuestFilesystem
from repro.guest.guestswap import GuestSwapDevice
from repro.guest.pagecache import GuestPageCache
from repro.mem.page import ZERO, AnonContent
from repro.mem.reclaim import ReclaimScanner
from repro.sim.ops import (
    Alloc,
    Compute,
    DropCaches,
    FileRead,
    FileSync,
    FileWrite,
    Free,
    MarkPhase,
    Operation,
    Overwrite,
    Touch,
    WritePattern,
)
from repro.sim.rng import DeterministicRng


class Transfer:
    """One page of virtual-disk I/O: image block <-> guest frame.

    ``aligned`` is False for sub-4 KiB transfers (Windows guests before
    reformatting, Section 5.4) which the Mapper cannot track.
    """

    __slots__ = ("block", "gpa", "aligned")

    def __init__(self, block: int, gpa: int, aligned: bool = True) -> None:
        self.block = block
        self.gpa = gpa
        self.aligned = aligned

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transfer(block={self.block}, gpa={self.gpa:#x})"


class GuestKernel:
    """Guest OS state machine for one VM."""

    def __init__(self, config: GuestConfig, vm, host,
                 image_size_blocks: int, rng: DeterministicRng) -> None:
        config.validate()
        self.cfg = config
        self.vm = vm
        self.host = host
        self.rng = rng

        self.fs = GuestFilesystem(image_size_blocks, config.guest_swap_pages)
        self.gswap = GuestSwapDevice(
            self.fs.swap_start_block, config.guest_swap_pages)
        self.cache = GuestPageCache()
        self.anon = GuestAnonMemory()

        reserve = config.kernel_reserve_pages
        if reserve >= config.memory_pages:
            raise GuestError("kernel reserve exceeds guest memory")
        if config.allocator_window < 1:
            raise GuestError("allocator_window must be >= 1")
        #: GPAs [0, reserve) belong to the guest kernel image itself.
        self.free_list: list[int] = list(range(reserve, config.memory_pages))

        #: Guest-side accessed bits, one byte per gpa: set on every
        #: guest access, tested and cleared by the guest's clock hand.
        self._accessed = bytearray(config.memory_pages)
        self.scanner = ReclaimScanner(
            self._accessed, named_fraction=config.named_fraction)

        self.balloon_pinned: set[int] = set()
        self.balloon_target = 0
        self.workload_min_resident = 0
        self.oom_killed = False

        self._zero_cursor = 0
        self._windows = config.os_kind is GuestOsKind.WINDOWS
        # Allocation runs once per page of guest activity: hoist the
        # config-derived watermarks and the raw uniform-int primitive
        # (``randint(1, w)`` consumes exactly one ``_randbelow(w)``
        # draw, so binding it keeps the RNG sequence bit-identical).
        self._free_min = config.derived_free_min
        self._free_target = config.derived_free_target
        self._alloc_window = config.allocator_window
        self._dirty_threshold = int(
            config.dirty_threshold_fraction * config.memory_pages)
        self._getrandbits = rng._random.getrandbits

    # ------------------------------------------------------------------
    # operation dispatch
    # ------------------------------------------------------------------

    def execute(self, op: Operation) -> None:
        """Interpret one workload operation, charging ``vm.costs``."""
        if self.oom_killed:
            raise GuestOomKill("workload was killed by the guest OOM killer")
        if self._windows and self.cfg.zero_free_pages:
            self._zero_free_pages_background()

        if isinstance(op, Compute):
            self.vm.costs.cpu(op.seconds)
        elif isinstance(op, FileRead):
            self._file_read(op)
        elif isinstance(op, FileWrite):
            self._file_write(op)
        elif isinstance(op, FileSync):
            self._file_sync(op.file_id)
        elif isinstance(op, Alloc):
            self.anon.commit(op.region, op.npages)
        elif isinstance(op, Touch):
            self._touch_anon(op)
        elif isinstance(op, Overwrite):
            self._overwrite_anon(op)
        elif isinstance(op, Free):
            self._free_region(op.region)
        elif isinstance(op, DropCaches):
            self.drop_caches()
        elif isinstance(op, MarkPhase):
            if "min_resident_pages" in op.payload:
                self.workload_min_resident = int(
                    op.payload["min_resident_pages"])
                self._check_memory_demand()
        else:
            raise GuestError(f"unknown operation: {op!r}")

    # ------------------------------------------------------------------
    # file I/O
    # ------------------------------------------------------------------

    def _file_read(self, op: FileRead) -> None:
        fobj = self.fs.file(op.file_id)
        offset = op.offset_pages
        npages = op.npages
        # Bounds-check the whole span once; the per-page loops below
        # then use plain extent arithmetic instead of a checked
        # ``block_of`` call per page.
        fobj.block_of(offset)
        if npages > 1:
            fobj.block_of(offset + npages - 1)
        base = fobj.start_block + offset
        lookup = self.cache._by_block.get
        touch_page = self.host.touch_page
        guest_accessed = self._accessed
        vm = self.vm
        costs = vm.costs
        if op.touch_cost < 0:
            raise GuestError(f"negative touch cost: {op.touch_cost}")
        touch_cost = op.touch_cost
        readahead = self.cfg.readahead_pages
        costs_cpu = costs.cpu
        # A guest load whose GPA is EPT-present never exits to the
        # hypervisor -- the hardware walk sets the accessed bit and the
        # guest carries on.  Model that directly: only non-present
        # pages (or pages under preventer emulation, which must trap)
        # take the ``touch_page`` slow path.
        ept = vm.ept
        present = ept._present
        hw_accessed = ept._accessed
        preventer = vm.preventer
        i = 0
        while i < npages:
            gpa = lookup(base + i)
            if gpa is not None:
                if (gpa < ept._size and present[gpa]
                        and (preventer is None or not preventer._emulated)):
                    hw_accessed[gpa] = 1
                else:
                    touch_page(vm, gpa)
                guest_accessed[gpa] = 1
                if touch_cost:
                    costs.cpu_seconds = costs.cpu_seconds + touch_cost
                i += 1
                continue
            # Miss: read ahead over the contiguous run of missing blocks.
            run_len = 1
            limit = min(readahead, npages - i)
            while (run_len < limit
                   and lookup(base + i + run_len) is None):
                run_len += 1
            transfers = [
                Transfer(base + i + k, self._alloc_gpa(), self._aligned())
                for k in range(run_len)
            ]
            self.host.virtio_read(vm, transfers)
            cache_insert = self.cache.insert
            note_resident = self.scanner.note_resident
            for t in transfers:
                cache_insert(t.block, t.gpa, dirty=False)
                note_resident(t.gpa, named=True)
                guest_accessed[t.gpa] = 1
            if touch_cost:
                costs_cpu(touch_cost * run_len)
            i += run_len

    def _file_write(self, op: FileWrite) -> None:
        fobj = self.fs.file(op.file_id)
        for k in range(op.npages):
            block = fobj.block_of(op.offset_pages + k)
            gpa = self.cache.lookup(block)
            if gpa is not None:
                self.host.touch_page(
                    self.vm, gpa, write=True, new_content=AnonContent.fresh())
                self.cache.mark_dirty(gpa)
            else:
                gpa = self._alloc_gpa()
                self.host.overwrite_page(
                    self.vm, gpa, AnonContent.fresh(),
                    WritePattern.FULL_SEQUENTIAL)
                self.cache.insert(block, gpa, dirty=True)
                self.scanner.note_resident(gpa, named=True)
            self._accessed[gpa] = 1
            if op.touch_cost:
                self.vm.costs.cpu(op.touch_cost)
        self._writeback_if_needed()

    def _file_sync(self, file_id: str) -> None:
        fobj = self.fs.file(file_id)
        in_file = range(fobj.start_block, fobj.start_block + fobj.size_pages)
        dirty = [
            gpa for gpa in self.cache.dirty_gpas_snapshot()
            if self.cache.describe(gpa).block in in_file
        ]
        self._writeback(dirty, sync=True)

    def _writeback_if_needed(self) -> None:
        if self.cache.dirty_pages > self._dirty_threshold:
            dirty = self.cache.dirty_gpas_snapshot()
            dirty.sort(key=lambda g: self.cache.describe(g).block)
            self._writeback(dirty[: max(1, len(dirty) // 2)], sync=False)

    def _writeback(self, gpas: Iterable[int], *, sync: bool) -> None:
        transfers = [
            Transfer(self.cache.describe(gpa).block, gpa, self._aligned())
            for gpa in gpas
        ]
        if not transfers:
            return
        transfers.sort(key=lambda t: t.block)
        self.host.virtio_write(self.vm, transfers, sync=sync)
        for t in transfers:
            self.cache.mark_clean(t.gpa)

    # ------------------------------------------------------------------
    # anonymous memory
    # ------------------------------------------------------------------

    def _touch_anon(self, op: Touch) -> None:
        region = self.anon.region(op.region)
        pages = region.pages
        vm = self.vm
        costs = vm.costs
        if op.touch_cost < 0:
            raise GuestError(f"negative touch cost: {op.touch_cost}")
        touch_cost = op.touch_cost
        write = op.write
        touch_page = self.host.touch_page
        guest_accessed = self._accessed
        unmaterialized = PageLocation.UNMATERIALIZED
        guest_swap = PageLocation.GUEST_SWAP
        # Read hits on EPT-present pages stay in "hardware" (no host
        # trap) -- see the matching fast path in ``_file_read``.
        ept = vm.ept
        present = ept._present
        hw_accessed = ept._accessed
        preventer = vm.preventer
        for index in range(op.start, op.start + op.npages, op.stride):
            state = pages[index]
            location = state.location
            if location is unmaterialized:
                # Demand-zero allocation: a whole-page overwrite.
                gpa = self._alloc_gpa()
                content = AnonContent.fresh() if write else ZERO
                self.host.overwrite_page(
                    vm, gpa, content, WritePattern.FULL_SEQUENTIAL)
                costs.cpu_seconds = costs.cpu_seconds + self.cfg.zero_page_cost
                self.anon.place_in_memory(op.region, index, gpa)
                self.scanner.note_resident(gpa, named=False)
            elif location is guest_swap:
                gpa = self._guest_swap_in(op.region, index, state.where)
                if write:
                    touch_page(vm, gpa, True, AnonContent.fresh())
            else:
                gpa = state.where
                if write:
                    touch_page(vm, gpa, True, AnonContent.fresh())
                elif (gpa < ept._size and present[gpa]
                        and (preventer is None or not preventer._emulated)):
                    hw_accessed[gpa] = 1
                else:
                    touch_page(vm, gpa)
            guest_accessed[gpa] = 1
            if touch_cost:
                costs.cpu_seconds = costs.cpu_seconds + touch_cost

    def _overwrite_anon(self, op: Overwrite) -> None:
        region = self.anon.region(op.region)
        for index in range(op.start, op.start + op.npages):
            state = region.pages[index]
            content = AnonContent.fresh()
            if state.location is PageLocation.UNMATERIALIZED:
                gpa = self._alloc_gpa()
                self.host.overwrite_page(self.vm, gpa, content, op.pattern)
                self.anon.place_in_memory(op.region, index, gpa)
                self.scanner.note_resident(gpa, named=False)
            elif state.location is PageLocation.GUEST_SWAP:
                # Overwriting a guest-swapped page: the guest allocates a
                # fresh frame and abandons the swap copy.
                self.gswap.free(state.where)
                state.location = PageLocation.UNMATERIALIZED
                gpa = self._alloc_gpa()
                self.host.overwrite_page(self.vm, gpa, content, op.pattern)
                self.anon.place_in_memory(op.region, index, gpa)
                self.scanner.note_resident(gpa, named=False)
            else:
                gpa = state.where
                self.host.overwrite_page(self.vm, gpa, content, op.pattern)
            self._accessed[gpa] = 1
            self.vm.costs.cpu(self.cfg.zero_page_cost)
            if op.touch_cost:
                self.vm.costs.cpu(op.touch_cost)

    def _guest_swap_in(self, region_name: str, index: int, slot: int) -> int:
        """Fault an anon page back from the guest's own swap device."""
        gpa = self._alloc_gpa()
        block = self.gswap.block_of(slot)
        self.host.virtio_read(self.vm, [Transfer(block, gpa, self._aligned())])
        self.gswap.free(slot)
        state = self.anon.region(region_name).pages[index]
        state.location = PageLocation.UNMATERIALIZED  # re-place below
        state.where = -1
        self.anon.place_in_memory(region_name, index, gpa)
        self.scanner.note_resident(gpa, named=False)
        self.vm.counters.guest_swap_faults += 1
        return gpa

    def _free_region(self, name: str) -> None:
        gpas, slots = self.anon.release_region(name)
        for gpa in gpas:
            self.scanner.note_evicted(gpa)
            self._accessed[gpa] = 0
            self.free_list.append(gpa)
        for slot in slots:
            self.gswap.free(slot)

    # ------------------------------------------------------------------
    # allocation and guest reclaim
    # ------------------------------------------------------------------

    def _alloc_gpa(self) -> int:
        """Take a frame from the guest free list, reclaiming if low.

        Reuse is LIFO-with-a-window: the page comes from a random slot
        among the last ``allocator_window`` freed entries.  Hot (LIFO)
        reuse mirrors Linux's per-CPU page lists -- recently freed
        frames are exactly the ones the host has most likely swapped
        out underneath the guest, which is what turns page recycling
        into stale and false swap reads.  The window adds the buddy
        allocator's coalesce/split disorder, which is what defeats the
        host's swap readahead on those reads.
        """
        free_list = self.free_list
        if len(free_list) <= self._free_min:
            want = self._free_target - len(free_list)
            if want > 0:
                self._guest_reclaim(want)
        if not free_list:
            self._guest_reclaim(1)
        if not free_list:
            self._oom("guest out of memory with nothing reclaimable")
        n = len(free_list)
        window = self._alloc_window
        if window > n:
            window = n
        if window > 1:
            # randint(1, w) == 1 + _randbelow(w), and _randbelow is
            # rejection sampling over getrandbits -- replicated inline
            # so the draw sequence is identical.
            k = window.bit_length()
            getrandbits = self._getrandbits
            r = getrandbits(k)
            while r >= window:
                r = getrandbits(k)
            index = n - 1 - r
            free_list[index], free_list[-1] = (
                free_list[-1], free_list[index])
        return free_list.pop()

    def _guest_reclaim(self, want: int) -> None:
        result = self.scanner.pick_victims(want)
        swap_victims: list[int] = []
        for gpa, _named in result.victims:
            descriptor = self.cache.describe(gpa)
            if descriptor is not None:
                if descriptor.dirty:
                    self._writeback([gpa], sync=False)
                self.cache.remove(gpa)
                # No note_evicted: pick_victims already popped the
                # victim off its clock list.
                self._accessed[gpa] = 0
                self.free_list.append(gpa)
            elif self.anon.is_anon_gpa(gpa):
                swap_victims.append(gpa)
            self.vm.counters.guest_evictions += 1
        if swap_victims:
            self._guest_swap_out(swap_victims)

    def _guest_swap_out(self, gpas: list[int]) -> None:
        transfers = []
        slots = []
        for gpa in gpas:
            if self.gswap.free_slots == 0:
                self._oom("guest swap device full during reclaim")
            slot = self.gswap.allocate()
            slots.append((gpa, slot))
            transfers.append(
                Transfer(self.gswap.block_of(slot), gpa, self._aligned()))
        self.host.virtio_write(self.vm, transfers, sync=False)
        for gpa, slot in slots:
            self.anon.move_to_swap(gpa, slot)
            self.scanner.note_evicted(gpa)
            self._accessed[gpa] = 0
            self.free_list.append(gpa)
            self.vm.counters.guest_swap_sectors_written += 8

    def drop_caches(self) -> None:
        """Release every clean page-cache page (``drop_caches`` style)."""
        for gpa in self.cache.clean_gpas_snapshot():
            self.cache.remove(gpa)
            self.scanner.note_evicted(gpa)
            self._accessed[gpa] = 0
            self.free_list.append(gpa)

    # ------------------------------------------------------------------
    # balloon driver
    # ------------------------------------------------------------------

    @property
    def balloon_size(self) -> int:
        """Pages currently pinned by the balloon."""
        return len(self.balloon_pinned)

    def set_balloon_target(self, target_pages: int) -> None:
        """Record the size the host-side manager asked for."""
        if target_pages < 0:
            raise GuestError(f"negative balloon target: {target_pages}")
        self.balloon_target = target_pages

    def apply_balloon(self, max_delta: int) -> int:
        """Move toward the target by at most ``max_delta`` pages.

        Returns the signed number of pages actually moved.  Inflation
        can raise :class:`GuestOomKill` when the guest cannot satisfy
        the request (over-ballooning, Section 2.4).
        """
        delta = self.balloon_target - self.balloon_size
        if delta > 0:
            return self.inflate(min(delta, max_delta))
        if delta < 0:
            return -self.deflate(min(-delta, max_delta))
        return 0

    def inflate(self, npages: int) -> int:
        """Pin ``npages`` pages, prompting guest reclaim as needed."""
        if npages <= 0:
            return 0
        available = (self.cfg.memory_pages - self.cfg.kernel_reserve_pages
                     - self.balloon_size - npages)
        if available < self.workload_min_resident:
            self._oom(
                f"over-ballooning: {available} pages left for a workload "
                f"needing {self.workload_min_resident}")
        taken_gpas: list[int] = []
        for _ in range(npages):
            gpa = self._alloc_gpa()
            self.balloon_pinned.add(gpa)
            taken_gpas.append(gpa)
        self.host.balloon_pin(self.vm, taken_gpas)
        self.vm.counters.balloon_inflated_pages += len(taken_gpas)
        return len(taken_gpas)

    def deflate(self, npages: int) -> int:
        """Release up to ``npages`` pinned pages back to the guest."""
        released = []
        for _ in range(min(npages, self.balloon_size)):
            released.append(self.balloon_pinned.pop())
        if released:
            self.host.balloon_unpin(self.vm, released)
            self.free_list.extend(released)
            self.vm.counters.balloon_deflated_pages += len(released)
        return len(released)

    # ------------------------------------------------------------------
    # statistics and helpers
    # ------------------------------------------------------------------

    def memory_stats(self) -> dict[str, int]:
        """Guest-side memory view (consumed by the balloon manager)."""
        return {
            "total": self.cfg.memory_pages,
            "free": len(self.free_list),
            "cache_clean": self.cache.clean_pages,
            "cache_dirty": self.cache.dirty_pages,
            "anon_resident": self.anon.resident_pages(),
            "pinned": self.balloon_size,
            "min_resident": self.workload_min_resident,
            "kernel_reserve": self.cfg.kernel_reserve_pages,
        }

    def committed_pages(self) -> int:
        """Pages the guest is actively using (demand estimate)."""
        return (self.cfg.kernel_reserve_pages + self.cache.cached_pages
                + self.anon.resident_pages())

    def _aligned(self) -> bool:
        fraction = self.cfg.unaligned_io_fraction
        if fraction <= 0:
            return True
        return not self.rng.chance(fraction)

    def _check_memory_demand(self) -> None:
        """OOM check on a demand spike (Section 2.4 over-ballooning).

        When a workload phase announces a resident-set requirement the
        ballooned-away memory cannot accommodate, the guest's OOM or
        low-memory killer terminates it -- the crashes the paper
        reports for balloon configurations in Figures 5, 10 and 13.
        """
        available = (self.cfg.memory_pages - self.cfg.kernel_reserve_pages
                     - self.balloon_size)
        if self.workload_min_resident > available:
            self._oom(
                f"demand spike: workload needs {self.workload_min_resident} "
                f"resident pages, {available} available under balloon")

    def _oom(self, reason: str) -> None:
        self.oom_killed = True
        self.vm.counters.oom_kills += 1
        raise GuestOomKill(reason)

    def _zero_free_pages_background(self, batch: int = 16) -> None:
        """Windows-profile zero-page thread.

        Windows pre-zeroes free pages in the background; each zeroing of
        a host-swapped frame is a whole-page overwrite -- a false-read
        generator unique to this guest profile.
        """
        n = len(self.free_list)
        if n == 0:
            return
        zeroed = 0
        for _ in range(min(n, 4 * batch)):
            self._zero_cursor = (self._zero_cursor + 1) % n
            gpa = self.free_list[self._zero_cursor]
            if self.host.page_needs_zeroing(self.vm, gpa):
                self.host.overwrite_page(
                    self.vm, gpa, ZERO, WritePattern.FULL_SEQUENTIAL)
                self.vm.costs.cpu(self.cfg.zero_page_cost)
                zeroed += 1
                if zeroed >= batch:
                    break
