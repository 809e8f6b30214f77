"""Datacenter: VM provisioning, lifetimes and billing.

A thin IaaS layer above :mod:`repro.sim.vm`: the SciCumulus-RL starter
(SCStarter) asks a :class:`Datacenter` to provision the fleet a scheduling
plan requires, and the datacenter accounts for boot delays and accumulates
the bill.  It deliberately stays simple — the paper's environment is a
fixed fleet per run — but it centralizes pricing so Table IV-style cost
reporting is consistent everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim.vm import VM_TYPES, Vm, VmType
from repro.util.validate import ValidationError, check_non_negative

__all__ = ["ProvisionedVm", "Datacenter"]


@dataclass
class ProvisionedVm:
    """A VM plus its lease window inside a datacenter."""

    vm: Vm
    provisioned_at: float
    released_at: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.released_at is None

    def lease_seconds(self, now: float) -> float:
        """Seconds between provisioning and release (or ``now``)."""
        end = self.released_at if self.released_at is not None else now
        return max(0.0, end - self.provisioned_at)


class Datacenter:
    """Provision/release VMs and compute the bill.

    Parameters
    ----------
    name:
        Region label (cosmetic; the paper uses us-east-1 / N. Virginia).
    default_boot_time:
        Boot delay applied to provisioned VMs whose type declares none.
    """

    def __init__(self, name: str = "us-east-1", default_boot_time: float = 0.0) -> None:
        self.name = name
        self.default_boot_time = check_non_negative(
            "default_boot_time", default_boot_time
        )
        self._leases: Dict[int, ProvisionedVm] = {}
        self._next_id = 0

    # -- provisioning ------------------------------------------------------

    def provision(self, type_name: str, at: float = 0.0) -> Vm:
        """Provision one VM of ``type_name`` at time ``at``."""
        vm_type = VM_TYPES.get(type_name)
        if vm_type is None:
            raise ValidationError(
                f"unknown VM type {type_name!r}; known: {sorted(VM_TYPES)}"
            )
        if vm_type.boot_time == 0.0 and self.default_boot_time > 0.0:
            vm_type = VmType(
                name=vm_type.name,
                vcpus=vm_type.vcpus,
                speed=vm_type.speed,
                ram_gb=vm_type.ram_gb,
                price_per_hour=vm_type.price_per_hour,
                bandwidth_mbps=vm_type.bandwidth_mbps,
                boot_time=self.default_boot_time,
            )
        vm = Vm(self._next_id, vm_type)
        self._next_id += 1
        self._leases[vm.id] = ProvisionedVm(vm=vm, provisioned_at=float(at))
        return vm

    def provision_fleet(self, type_counts: Dict[str, int], at: float = 0.0) -> List[Vm]:
        """Provision several VMs; micros (small types) first for stable ids."""
        fleet: List[Vm] = []
        for type_name in sorted(type_counts, key=lambda t: VM_TYPES[t].vcpus):
            count = type_counts[type_name]
            if count < 0:
                raise ValidationError(f"negative count for {type_name!r}")
            for _ in range(count):
                fleet.append(self.provision(type_name, at))
        if not fleet:
            raise ValidationError("fleet must contain at least one VM")
        return fleet

    def release(self, vm_id: int, at: float) -> None:
        """Terminate a lease."""
        lease = self._leases.get(vm_id)
        if lease is None:
            raise ValidationError(f"unknown VM {vm_id}")
        if not lease.active:
            raise ValidationError(f"VM {vm_id} already released")
        if at < lease.provisioned_at:
            raise ValidationError("release before provisioning")
        lease.released_at = float(at)

    def release_all(self, at: float) -> None:
        """Terminate every active lease."""
        for lease in self._leases.values():
            if lease.active:
                self.release(lease.vm.id, at)

    # -- accounting -------------------------------------------------------

    @property
    def leases(self) -> List[ProvisionedVm]:
        return [self._leases[k] for k in sorted(self._leases)]

    def active_vms(self) -> List[Vm]:
        return [lease.vm for lease in self.leases if lease.active]

    def bill(self, now: float, per_second_billing: bool = False) -> float:
        """Total cost of all leases up to ``now`` (USD).

        Default is per-started-hour (the paper-era AWS model); the
        alternative is per-second with a 60 s minimum.
        """
        total = 0.0
        for lease in self.leases:
            seconds = lease.lease_seconds(now)
            rate = lease.vm.type.price_per_hour
            if per_second_billing:
                total += rate * max(seconds, 60.0) / 3600.0
            else:
                total += rate * max(1, math.ceil(seconds / 3600.0))
        return total
