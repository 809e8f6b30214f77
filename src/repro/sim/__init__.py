"""Discrete-event cloud workflow simulator (the WorkflowSim substitute).

The package mirrors the WorkflowSim decomposition the paper relies on:

- a **Workflow Mapper** role: :mod:`repro.dag` + :mod:`repro.sim.vm`
  bind abstract activations to concrete VM resources;
- a **Workflow Engine** role: :class:`~repro.sim.kernel.EpisodeKernel`
  tracks dependencies, releases ready activations and advances simulated
  time through an event heap, split into immutable cross-episode data
  and a resettable :class:`~repro.sim.kernel.EpisodeState` (see
  ``docs/architecture.md``);
  :class:`~repro.sim.simulator.WorkflowSimulator` is the one-shot facade
  over it;
- a **Workflow Scheduler** role: pluggable
  :class:`~repro.schedulers.base.OnlineScheduler` objects are consulted at
  every decision point (the paper's *available* workflow state).

Environment realism is layered through orthogonal models: data transfer
(:mod:`~repro.sim.network`), performance fluctuation
(:mod:`~repro.sim.fluctuation`), activation/VM failures
(:mod:`~repro.sim.failures`) and live migration
(:mod:`~repro.sim.migration`).
"""

from repro.sim.events import Event, EventQueue, EventType
from repro.sim.vm import Vm, VmType, VM_TYPES, t2_fleet, fleet_vcpus
from repro.sim.datacenter import Datacenter, ProvisionedVm
from repro.sim.host import Host, HostPool, host_failure_revocations
from repro.sim.network import NetworkModel, SharedStorageNetwork, ZeroCostNetwork
from repro.sim.fluctuation import (
    FluctuationModel,
    NoFluctuation,
    GaussianFluctuation,
    BurstThrottleFluctuation,
    InterferenceFluctuation,
    ComposedFluctuation,
)
from repro.sim.failures import FailureModel, NoFailures, BernoulliFailures
from repro.sim.migration import MigrationModel, NoMigrations, PeriodicMigrations
from repro.sim.spot import NoRevocations, PoissonRevocations, Revocation, RevocationModel
from repro.sim.metrics import ActivationRecord, SimulationResult, VmUsage
from repro.sim.estimates import NominalEstimateCache
from repro.sim.kernel import (
    DagState,
    EpisodeKernel,
    EpisodeState,
    FleetState,
    HorizonExceeded,
    PendingExecution,
    SimulationError,
)
from repro.sim.simulator import SimulationContext, WorkflowSimulator
from repro.sim.trace import gantt_text
from repro.sim.validate import validate_result

__all__ = [
    "Event",
    "EventQueue",
    "EventType",
    "Vm",
    "VmType",
    "VM_TYPES",
    "t2_fleet",
    "fleet_vcpus",
    "Datacenter",
    "ProvisionedVm",
    "Host",
    "HostPool",
    "host_failure_revocations",
    "NetworkModel",
    "SharedStorageNetwork",
    "ZeroCostNetwork",
    "FluctuationModel",
    "NoFluctuation",
    "GaussianFluctuation",
    "BurstThrottleFluctuation",
    "InterferenceFluctuation",
    "ComposedFluctuation",
    "FailureModel",
    "NoFailures",
    "BernoulliFailures",
    "MigrationModel",
    "NoMigrations",
    "PeriodicMigrations",
    "RevocationModel",
    "NoRevocations",
    "PoissonRevocations",
    "Revocation",
    "ActivationRecord",
    "SimulationResult",
    "VmUsage",
    "NominalEstimateCache",
    "DagState",
    "EpisodeKernel",
    "EpisodeState",
    "FleetState",
    "HorizonExceeded",
    "PendingExecution",
    "SimulationError",
    "SimulationContext",
    "WorkflowSimulator",
    "gantt_text",
    "validate_result",
]
