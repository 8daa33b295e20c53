"""Outside-in instrumentation of the ``repro`` packages.

Nothing under ``src/`` knows about this module.  It patches the public
entry points of each layer for the length of one set of passes and
restores them afterwards:

* :class:`CellHooks` is always on.  Per cell it captures the
  ``Machine`` the cell built, counts ``GuestKernel.execute`` calls and,
  once the cell returns, reads the program's own counters
  (``Machine.aggregate_counters``, ``Engine.events_dispatched``,
  ``DiskStats``, ``SwapBackendStats``).  Its cost is one counter bump
  per guest operation.
* :class:`Ledger` is the traced pass.  It wraps every entry point in
  :data:`LAYERS` and charges process CPU between consecutive wrapper
  events to whichever layer is on top of its call stack (``other`` when
  the stack is empty).  A layer's self time is therefore its calls'
  duration minus the wrapped calls they make, and the self times add up
  exactly to the CPU of the traced window.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import asdict

#: (layer, "module:Class", method names or None for every public
#: method).  The ``swapback`` entry applies to every SwapBackend class
#: that defines the methods itself.
LAYERS = (
    ("sim", "repro.sim.engine:Engine", ("run",)),
    ("cluster", "repro.machine:Machine",
     ("__init__", "create_vm", "boot_guest", "apply_static_balloon")),
    ("guest", "repro.guest.kernel:GuestKernel",
     ("execute", "apply_balloon")),
    ("host", "repro.host.hypervisor:Hypervisor",
     ("touch_page", "overwrite_page", "virtio_read", "virtio_write",
      "balloon_pin", "balloon_unpin")),
    ("mem", "repro.mem.reclaim:ReclaimScanner", ("pick_victims",)),
    ("core", "repro.core.mapper:SwapMapper", None),
    ("core", "repro.core.preventer:FalseReadsPreventer", None),
    ("disk", "repro.disk.device:DiskDevice",
     ("read", "read_async", "write_async", "write_sync")),
    ("swapback", "repro.swapback.base:SwapBackend",
     ("store", "load", "load_async", "note_free")),
    ("balloon", "repro.balloon.manager:BalloonManager", ("tick",)),
    ("exec", "repro.exec.store:ResultStore", ("store_cell",)),
)

#: Every layer a ledger reports, ``other`` last.
LAYER_NAMES = ("sim", "cluster", "experiments", "guest", "host", "mem",
               "core", "disk", "swapback", "balloon", "exec", "other")

#: Swapback methods whose third argument is a page count.
_PAGED = ("store", "load", "load_async")


def _resolve(path: str):
    import importlib
    module, _, name = path.partition(":")
    return importlib.import_module(module), name


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _public_methods(cls):
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and callable(value)
            and not isinstance(value, (property, classmethod,
                                       staticmethod, type))]


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def set_attr(self, owner, name: str, value) -> None:
        self._undo.append((setattr, owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def set_item(self, mapping, key, value) -> None:
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self) -> None:
        while self._undo:
            restore, owner, name, old = self._undo.pop()
            restore(owner, name, old)


class Ledger:
    """Self time and entry counts per layer over one traced window."""

    def __init__(self, clock=time.process_time_ns) -> None:
        self.clock = clock
        self.self_ns: Counter = Counter()
        #: (layer, method) -> calls entering the layer from outside it.
        self.entries: Counter = Counter()
        #: swapback method -> pages named by its outside entries.
        self.swap_pages: Counter = Counter()
        self._stack: list[str] = []
        self._last = [0]
        self.window_ns = 0
        self._started = 0

    # -- the wrapper ---------------------------------------------------

    def wrap(self, layer: str, method: str, func):
        """``func`` instrumented as an entry point of ``layer``."""
        clock = self.clock
        stack = self._stack
        last = self._last
        self_ns = self.self_ns
        entries = self.entries
        key = (layer, method)
        pages = self.swap_pages if (layer == "swapback"
                                    and method in _PAGED) else None

        @functools.wraps(func)
        def entry(*args, **kwargs):
            now = clock()
            top = stack[-1] if stack else "other"
            self_ns[top] += now - last[0]
            if top != layer:
                entries[key] += 1
                if pages is not None:
                    pages[method] += args[2]
            stack.append(layer)
            last[0] = now
            try:
                return func(*args, **kwargs)
            finally:
                now = clock()
                self_ns[layer] += now - last[0]
                stack.pop()
                last[0] = now
        return entry

    # -- installing ----------------------------------------------------

    def install(self, patches: _Patches, harness: str) -> None:
        """Wrap every entry point in LAYERS, plus the cell runner of
        sweep harness ``harness`` (layer ``experiments``)."""
        from repro.experiments import registry
        from repro.swapback import factory  # noqa: F401  (every backend)
        from repro.swapback.base import SwapBackend

        for layer, path, methods in LAYERS:
            module, class_name = _resolve(path)
            cls = getattr(module, class_name)
            classes = (_subclasses(SwapBackend) if cls is SwapBackend
                       else [cls])
            for owner in classes:
                names = methods or _public_methods(owner)
                for name in names:
                    if name in vars(owner):
                        patches.set_attr(owner, name, self.wrap(
                            layer, name, getattr(owner, name)))
        runner = registry.CELL_RUNNERS[harness]
        patches.set_item(registry.CELL_RUNNERS, harness,
                         self.wrap("experiments", "cell_runner", runner))

    def start(self) -> None:
        self._started = self._last[0] = self.clock()

    def stop(self) -> None:
        if self._stack:
            raise RuntimeError(f"ledger stopped inside {self._stack}")
        now = self.clock()
        self.self_ns["other"] += now - self._last[0]
        self._last[0] = now
        self.window_ns += now - self._started

    # -- reading -------------------------------------------------------

    def calls(self, layer: str) -> int:
        return sum(n for (name, _m), n in self.entries.items()
                   if name == layer)

    def entry_snapshot(self) -> dict:
        """Counts a cell's cross-checks difference before and after."""
        return {
            "guest.execute": self.entries[("guest", "execute")],
            "swapback.store": self.entries[("swapback", "store")],
            "swapback.load": (self.entries[("swapback", "load")]
                              + self.entries[("swapback", "load_async")]),
            "swapback.store_pages": self.swap_pages["store"],
            "swapback.load_pages": (self.swap_pages["load"]
                                    + self.swap_pages["load_async"]),
        }


def machine_snapshot(machine) -> dict:
    """The program's own counters for one finished cell's machine."""
    backend = machine.cluster.hosts[0].swapback
    return {
        "counters": machine.aggregate_counters(),
        "events": machine.engine.events_dispatched,
        "disk": asdict(machine.disk.stats),
        "swapback": {"class": type(backend).__name__,
                     **backend.stats.snapshot()},
    }


class CellHooks:
    """Per-cell observation, on in every pass.

    While installed, ``execute_cell`` (as ``run_sweep`` reaches it) is
    replaced by a function that runs the cell and appends a record to
    :attr:`records`: the spec, the ``RunResult``, the guest operations
    executed, the machine snapshot, and -- in a traced pass -- the
    ledger's entry counts for that cell.
    """

    def __init__(self, counter) -> None:
        #: Instruction counter (:class:`pmu.InstructionCounter`).
        self.counter = counter
        self.records: list[dict] = []
        self.ops = 0
        #: Operations the VmDrivers pulled (counted in traced passes).
        self.driver_ops = [0]
        self._machines: list = []

    def install(self, patches: _Patches,
                ledger: Ledger | None = None) -> None:
        from repro.exec import executor
        from repro.guest.kernel import GuestKernel
        from repro.machine import Machine

        hooks = self
        init = Machine.__init__
        execute = GuestKernel.execute

        def machine_init(machine, *args, **kwargs):
            init(machine, *args, **kwargs)
            hooks._machines.append(machine)

        def counted_execute(guest, op):
            hooks.ops += 1
            return execute(guest, op)

        patches.set_attr(Machine, "__init__", machine_init)
        patches.set_attr(GuestKernel, "execute", counted_execute)
        if ledger is not None:
            _count_driver_ops(patches, self.driver_ops)

        inner = executor.execute_cell
        if ledger is not None:
            inner = ledger.wrap("exec", "execute_cell", inner)

        def observed_execute_cell(spec):
            instr_start = hooks.counter.read()
            cpu_start, wall_start = time.process_time(), time.perf_counter()
            ops_before = hooks.ops
            driver_ops_before = hooks.driver_ops[0]
            entries_before = (ledger.entry_snapshot()
                              if ledger is not None else None)
            del hooks._machines[:]
            result = inner(spec)
            record = {
                "spec": spec,
                "result": result,
                "instr_start": instr_start,
                "cpu_start": cpu_start,
                "wall_start": wall_start,
                "ops": hooks.ops - ops_before,
                "machines": [machine_snapshot(m) for m in hooks._machines],
            }
            del hooks._machines[:]
            if ledger is not None:
                after = ledger.entry_snapshot()
                record["entries"] = {
                    name: after[name] - entries_before[name]
                    for name in after}
                record["driver_ops"] = hooks.driver_ops[0] - driver_ops_before
            hooks.records.append(record)
            return result

        patches.set_attr(executor, "execute_cell", observed_execute_cell)


def _count_driver_ops(patches: _Patches, driver_ops: list) -> None:
    """Count the operations every VmDriver pulls from its workload."""
    from repro.driver import VmDriver
    init = VmDriver.__init__

    def counting(ops):
        for op in ops:
            driver_ops[0] += 1
            yield op

    def driver_init(driver, *args, **kwargs):
        init(driver, *args, **kwargs)
        driver._ops = counting(driver._ops)

    patches.set_attr(VmDriver, "__init__", driver_init)
