"""Generic named/anon reclaim scanning, shared by host and guest models.

Linux reclaim keeps file-backed ("named") and anonymous pages on
separate LRU lists and prefers to take file pages: they can be dropped
without write-back and re-read with effective prefetching.  The paper's
*false page anonymity* problem is precisely that in the baseline the
named list contains nothing but the hypervisor executable, so this
preference repeatedly victimizes QEMU's own code (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.errors import MemoryError_
from repro.mem.lru import ClockList
from repro.trace.collector import NULL_TRACE


@dataclass
class ScanResult:
    """Outcome of one victim-selection pass."""

    #: Chosen victims, as (key, was_named) pairs in eviction order.
    victims: list[tuple[Hashable, bool]] = field(default_factory=list)
    #: Entries the clock hand examined (the pages-scanned metric).
    examined: int = 0


class ReclaimScanner:
    """Two-list clock reclaim with a tunable named-page preference.

    Keys are guest page numbers (ints) or QEMU code pages
    (``("code", index)`` tuples).  The clock hand is configured with
    data, not callbacks:

    * ``accessed`` -- per-gpa accessed bytes, tested and cleared when
      the hand passes an int key.  Only keys set in ``present`` count
      (a host key whose page sits in the swap cache is not EPT-mapped);
      ``present=None`` means every int key on the lists is present, as
      in a guest, whose pages are always in its own RAM.
    * ``code_accessed`` -- indices of accessed QEMU code pages, tested
      and cleared for tuple keys.
    * ``pinned`` -- keys pinned for in-flight DMA: always rotated, even
      by the escalation pass.
    * ``noise`` -- probability that the hand grants a non-pinned key an
      extra rotation regardless of its bit, modelling the disorder of
      real referenced-bit sampling (the seed of decayed swap
      sequentiality, see ``HostConfig.reclaim_noise``).  Each draw is
      one ``noise_rng.chance(noise)``.

    The scanner keeps references to these containers, so their owners
    must mutate them in place (the EPT bitmaps grow with ``extend``).
    """

    def __init__(self, accessed: bytearray, *, present=None,
                 code_accessed=frozenset(), pinned=frozenset(),
                 named_fraction: float = 0.75, noise: float = 0.0,
                 noise_rng=None) -> None:
        if not 0.0 <= named_fraction <= 1.0:
            raise MemoryError_(
                f"named_fraction must be in [0, 1]: {named_fraction}")
        if not 0.0 <= noise <= 1.0:
            raise MemoryError_(f"noise must be in [0, 1]: {noise}")
        if noise > 0.0 and noise_rng is None:
            raise MemoryError_("noise requires a noise_rng")
        self.named_list = ClockList("named")
        self.anon_list = ClockList("anon")
        self.named_fraction = named_fraction
        self._accessed = accessed
        self._present = (present if present is not None
                         else b"\x01" * len(accessed))
        self._code_accessed = code_accessed
        self._pinned = pinned
        self._noise = noise
        # Same draw as ``noise_rng.chance(noise)``, minus two frames.
        self._rand = noise_rng._random.random if noise > 0.0 else None
        #: Trace collector plus the VM name scans are attributed to;
        #: wired by the machine for host-side scanners under ``--trace``.
        self.trace = NULL_TRACE
        self.trace_vm: str | None = None

    # -- membership maintenance --------------------------------------------

    def note_resident(self, key: Hashable, *, named: bool,
                      cold: bool = False) -> None:
        """Register a newly resident page on the appropriate list.

        ``cold=True`` queues the page at the eviction end (speculative
        readahead pages that have not yet been used).
        """
        target = self.named_list if named else self.anon_list
        if cold:
            target.add_front(key)
        else:
            target.add(key)

    def note_evicted(self, key: Hashable) -> None:
        """Drop a page from whichever list holds it."""
        self.named_list.remove(key)
        self.anon_list.remove(key)

    def change_kind(self, key: Hashable, *, named: bool) -> None:
        """Move a resident page between lists (e.g. a Mapper COW break
        turns a named page anonymous)."""
        self.note_evicted(key)
        self.note_resident(key, named=named)

    def is_named(self, key: Hashable) -> bool:
        """Whether the resident page currently sits on the named list."""
        return key in self.named_list

    @property
    def resident(self) -> int:
        """Pages on either list."""
        return len(self.named_list) + len(self.anon_list)

    # -- victim selection ----------------------------------------------------

    def scan(self, clock: ClockList, want: int,
             second_chance: bool = True) -> tuple[list[Hashable], int]:
        """Run the clock hand over ``clock`` for up to ``want`` victims.

        Returns ``(victims, examined)``; ``examined`` counts every key
        the hand looked at (the pages-scanned metric).  The hand pops
        keys from the head.  A pinned key rotates to the tail before
        any noise draw; with noise on, every other key draws exactly
        once, rotating on a hit; a key that survives the draw rotates
        if its accessed bit was set, clearing it.  Anything else is a
        victim.  The scan gives
        up after twice the list's length, returning what it has
        (reclaim priority escalation takes over from there).

        ``second_chance=False`` is that escalation pass: only the pin
        protects a key -- no noise draw, no accessed bit read or
        cleared.

        This loop runs once per examined page, hundreds of thousands of
        times per cell, so the probe is inlined and every container is
        bound to a local: an examination makes no Python call.
        """
        if second_chance:
            noise = self._noise
            code_accessed = self._code_accessed
            size = len(self._present)
        else:  # nothing counts as accessed: every int key fails size
            noise = 0.0
            code_accessed = frozenset()
            size = 0
        pinned = self._pinned
        rand = self._rand
        present = self._present
        accessed = self._accessed
        entries = clock._entries
        pop_head = entries.popitem
        set_tail = entries.__setitem__
        victims: list[Hashable] = []
        take = victims.append
        examined = 0
        taken = 0
        limit = 2 * len(entries)
        while taken < want and entries and examined < limit:
            key, _ = pop_head(last=False)
            examined += 1
            if key in pinned or (noise and rand() < noise):
                set_tail(key, None)  # second chance
                continue
            if type(key) is tuple:
                index = key[1]
                if index in code_accessed:
                    code_accessed.discard(index)
                    set_tail(key, None)
                    continue
            elif key < size and present[key] and accessed[key]:
                accessed[key] = 0
                set_tail(key, None)
                continue
            take(key)
            taken += 1
        return victims, examined

    def pick_victims(self, want: int) -> ScanResult:
        """Select up to ``want`` victims, preferring named pages.

        The named list is scanned for ``named_fraction`` of the batch
        (all of it if the anon list is empty) and the anon list covers
        the remainder; any shortfall falls back to the other list.
        """
        if want <= 0:
            return ScanResult()
        result = ScanResult()

        from_named = want if not len(self.anon_list) else max(
            1, int(round(want * self.named_fraction)))
        from_named = min(from_named, want)

        victims = result.victims
        named_victims, examined = self.scan(
            self.named_list, min(from_named, len(self.named_list)))
        result.examined += examined
        victims += [(key, True) for key in named_victims]

        remaining = want - len(victims)
        if remaining > 0 and len(self.anon_list):
            anon_victims, examined = self.scan(self.anon_list, remaining)
            result.examined += examined
            victims += [(key, False) for key in anon_victims]

        # Shortfall: escalate back to the named list without the
        # second-chance courtesy (reclaim priority escalation).  Only
        # DMA-pinned pages keep their protection.
        remaining = want - len(victims)
        if remaining > 0 and len(self.named_list):
            forced, examined = self.scan(self.named_list, remaining, False)
            result.examined += examined
            victims += [(key, True) for key in forced]
        if self.trace.enabled:
            self.trace.emit(
                "reclaim.scan", vm=self.trace_vm,
                examined=result.examined, victims=len(result.victims))
        return result
