"""Machine: the single-host facade over a cluster of one.

Historically this module assembled the engine, disk, frame pool,
hypervisor, and VMs itself; that per-host assembly now lives in
:class:`repro.cluster.host.Host`, and a :class:`Machine` is a thin
facade over a one-host :class:`repro.cluster.cluster.Cluster`.  The
facade is *bit-identical* to the old assembly: the single host draws
from the cluster's root RNG with unchanged fork labels, no budgets
gate its swap area, and no migration controller is scheduled -- so
every existing experiment, figure, and cached store key is untouched.

Experiments construct a machine from a
:class:`repro.config.MachineConfig`, add VMs and workloads, and run
the engine, exactly as before.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.cluster.host import Host
from repro.config import MachineConfig, VmConfig
from repro.host.vm import Vm


class Machine:
    """One simulated physical host (a cluster of one)."""

    #: Host-root region size: holds the QEMU executables of all VMs.
    HOST_ROOT_PAGES = Host.HOST_ROOT_PAGES

    def __init__(self, config: MachineConfig) -> None:
        config.validate()
        self.cfg = config
        self.cluster = Cluster(config.as_cluster())
        self._host = self.cluster.hosts[0]

    # ------------------------------------------------------------------
    # the single host's parts, at their historical names
    # ------------------------------------------------------------------

    @property
    def engine(self):
        return self.cluster.engine

    @property
    def rng(self):
        return self.cluster.rng

    @property
    def faults(self):
        return self.cluster.faults

    @property
    def trace(self):
        return self.cluster.trace

    @property
    def layout(self):
        return self._host.layout

    @property
    def swap_area(self):
        return self._host.swap_area

    @property
    def disk(self):
        return self._host.disk

    @property
    def frames(self):
        return self._host.frames

    @property
    def hypervisor(self):
        return self._host.hypervisor

    @property
    def vms(self) -> list[Vm]:
        return self._host.vms

    @property
    def auditor(self):
        return self._host.auditor

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.engine.now

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def create_vm(self, vm_config: VmConfig) -> Vm:
        """Instantiate a VM: image region, QEMU process, guest kernel."""
        return self.cluster.create_vm(vm_config, host=self._host)

    def boot_guest(self, vm: Vm, *, fraction: float = 1.0) -> None:
        """Model the guest's uptime history before the experiment.

        See :meth:`repro.cluster.host.Host.boot_guest` -- the phase is
        untimed: costs, counters, and disk state reset.
        """
        self._host.boot_guest(vm, fraction=fraction)

    def apply_static_balloon(self, vm: Vm, pages: int) -> None:
        """Pre-inflate the balloon before the workload starts."""
        self._host.apply_static_balloon(vm, pages)

    def run(self, until: float | None = None) -> float:
        """Run the engine until all work completes (or ``until``)."""
        return self.engine.run(until)

    def aggregate_counters(self) -> dict[str, int]:
        """Machine-wide sum of every VM's counters."""
        return self._host.aggregate_counters()
