"""User-mode instructions retired by this thread, read from the CPU's
performance counters through ``perf_event_open(2)``.

Process CPU seconds on a shared host drift by tens of percent over
minutes as neighbours contend for caches and cores; the instruction
count of deterministic work does not.  Needs Linux with
``/proc/sys/kernel/perf_event_paranoid`` at 2 or lower and a
virtualised PMU.
"""

from __future__ import annotations

import ctypes
import os
import platform
import struct

#: perf_event_open syscall numbers by machine.
_SYSCALL = {"x86_64": 298, "aarch64": 241}
_PERF_TYPE_HARDWARE = 0
_PERF_COUNT_HW_INSTRUCTIONS = 1
_ATTR_SIZE = 128
#: attr flags: disabled=0, exclude_kernel (bit 5), exclude_hv (bit 6).
_FLAGS = (1 << 5) | (1 << 6)


class InstructionCounter:
    """Counts user-mode instructions of the calling thread from
    construction on; :meth:`read` returns the running total."""

    def __init__(self) -> None:
        number = _SYSCALL.get(platform.machine())
        if number is None:
            raise OSError(f"no perf_event_open on {platform.machine()}")
        attr = bytearray(_ATTR_SIZE)
        struct.pack_into("IIQ", attr, 0, _PERF_TYPE_HARDWARE, _ATTR_SIZE,
                         _PERF_COUNT_HW_INSTRUCTIONS)
        struct.pack_into("Q", attr, 40, _FLAGS)
        libc = ctypes.CDLL(None, use_errno=True)
        buffer = (ctypes.c_char * _ATTR_SIZE).from_buffer(attr)
        fd = libc.syscall(number, buffer, 0, -1, -1, 0)
        if fd < 0:
            errno = ctypes.get_errno()
            raise OSError(errno, f"perf_event_open: {os.strerror(errno)}")
        self._fd = fd

    def read(self) -> int:
        return struct.unpack("Q", os.read(self._fd, 8))[0]
