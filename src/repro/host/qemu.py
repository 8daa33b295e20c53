"""The QEMU process surrounding each guest.

In a hosted hypervisor the guest's address space lives inside an
ordinary user process whose *executable* is the only file-backed
("named") memory in that address space.  The host's preference for
reclaiming named pages therefore victimizes exactly these vital pages
-- the paper's *false page anonymity*.  This model tracks which code
pages are resident and walks a cursor over them as QEMU executes.
"""

from __future__ import annotations

from repro.disk.geometry import DiskRegion
from repro.errors import HostError


class QemuProcess:
    """Resident-set model of one VM's QEMU executable pages."""

    def __init__(self, code_region: DiskRegion, base_page: int,
                 code_pages: int) -> None:
        if code_pages < 0:
            raise HostError(f"negative code size: {code_pages}")
        self.code_region = code_region
        #: Page offset of this process's text inside the host-root region.
        self.base_page = base_page
        self.code_pages = code_pages
        self.resident: set[int] = set()
        self.accessed: set[int] = set()
        self._cursor = 0

    def next_touches(self, n: int) -> list[int]:
        """The next ``n`` code pages the process executes through."""
        code_pages = self.code_pages
        if code_pages == 0 or n <= 0:
            return []
        if n > code_pages:
            n = code_pages
        cursor = self._cursor
        end = cursor + n
        if end <= code_pages:
            touches = list(range(cursor, end))
        else:  # cursor wraps: two contiguous spans
            touches = list(range(cursor, code_pages))
            touches.extend(range(end - code_pages))
        self._cursor = end % code_pages
        return touches

    def is_resident(self, index: int) -> bool:
        """Whether code page ``index`` is currently in memory."""
        return index in self.resident

    def mark_resident(self, index: int) -> None:
        """Map code page ``index``."""
        self.resident.add(index)

    def evict(self, index: int) -> None:
        """Reclaim dropped code page ``index`` (clean, file-backed)."""
        self.resident.discard(index)
        self.accessed.discard(index)

    def sector_of(self, index: int) -> int:
        """Physical sector backing code page ``index``."""
        if not 0 <= index < self.code_pages:
            raise HostError(f"code page {index} out of range")
        return self.code_region.sector_of_page(self.base_page + index)

    def fault_cluster(self, index: int, readahead: int) -> list[int]:
        """Non-resident code pages read together on a fault at ``index``."""
        if readahead <= 0:
            readahead = 1
        base = (index // readahead) * readahead
        end = min(base + readahead, self.code_pages)
        return [i for i in range(base, end) if i not in self.resident]
