"""Clock-style LRU approximation.

Both the host and the guest kernels reclaim with a clock hand over an
ordered list of resident pages, giving referenced pages a second chance
-- the same approximation Linux's active/inactive lists implement.  The
number of entries the hand *examines* is the paper's "pages scanned"
metric (Figure 11c).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator


class ClockList:
    """Ordered set of keys for a clock hand to sweep.

    Keys enter at the tail (most recently added).  The hand
    (:meth:`repro.mem.reclaim.ReclaimScanner.scan`) examines keys from
    the head, rotating a referenced key to the tail (second chance) and
    evicting the rest.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._entries: OrderedDict[Hashable, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def add(self, key: Hashable) -> None:
        """Insert ``key`` at the tail; re-adding refreshes its position."""
        if key in self._entries:
            self._entries.move_to_end(key)
        else:
            self._entries[key] = None

    def add_front(self, key: Hashable) -> None:
        """Insert ``key`` at the head -- first in line for eviction.

        Models inactive-list insertion of speculative pages (swap
        readahead) that have earned no recency credit yet.
        """
        self._entries[key] = None
        self._entries.move_to_end(key, last=False)

    def remove(self, key: Hashable) -> None:
        """Remove ``key``; missing keys are ignored (already evicted)."""
        self._entries.pop(key, None)

    def keys_in_order(self) -> list[Hashable]:
        """Snapshot of keys from head (coldest) to tail (hottest)."""
        return list(self._entries)
