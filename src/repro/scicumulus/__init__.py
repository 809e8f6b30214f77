"""SciCumulus-RL substitute — the execution stage of the paper's pipeline.

The real SciCumulus is an MPI-based SWfMS (one SCMaster coordinating
SCSlaves across cloud VMs) with a provenance database.  This package
simulates that execution environment end-to-end:

- :mod:`~repro.scicumulus.xml_spec` — the workflow-specification XML that
  SCSetup loads;
- :mod:`~repro.scicumulus.cloud` — a simulated AWS region: VM deployment
  with boot latency and a *noisy* performance profile (burst throttling,
  interference) that the clean learning simulator does not model;
- :mod:`~repro.scicumulus.mpi_sim` — SCCore: a simulated MPI master/slave
  engine that executes a scheduling plan with per-message latencies;
- :mod:`~repro.scicumulus.provenance` — SQLite provenance store; past
  executions feed future ReASSIgN runs (§III-D);
- :mod:`~repro.scicumulus.swfms` — the SCSetup/SCStarter/SCCore facade
  (the paper's Figure 1 pipeline).
"""

from typing import TYPE_CHECKING

from repro import lazy_namespace

__getattr__, __dir__ = lazy_namespace(__name__, {
    "xml_spec": ("workflow_to_xml", "workflow_from_xml"),
    "cloud": ("CloudProfile", "SimulatedCloud"),
    "mpi_sim": ("MpiExecutionEngine", "MpiConfig"),
    "analytics": (
        "VmReport",
        "activity_statistics",
        "makespan_trend",
        "scheduler_comparison",
        "vm_performance_report",
    ),
    "online": ("MpiOverheadNetwork", "execute_online"),
    "provenance": ("ProvenanceStore",),
    "swfms": ("ExecutionReport", "SciCumulusRL"),
})

if TYPE_CHECKING:
    from repro.scicumulus.analytics import (
        VmReport,
        activity_statistics,
        makespan_trend,
        scheduler_comparison,
        vm_performance_report,
    )
    from repro.scicumulus.cloud import CloudProfile, SimulatedCloud
    from repro.scicumulus.mpi_sim import MpiConfig, MpiExecutionEngine
    from repro.scicumulus.online import MpiOverheadNetwork, execute_online
    from repro.scicumulus.provenance import ProvenanceStore
    from repro.scicumulus.swfms import ExecutionReport, SciCumulusRL
    from repro.scicumulus.xml_spec import workflow_from_xml, workflow_to_xml

__all__ = [
    "workflow_to_xml",
    "workflow_from_xml",
    "CloudProfile",
    "SimulatedCloud",
    "MpiExecutionEngine",
    "MpiConfig",
    "ProvenanceStore",
    "MpiOverheadNetwork",
    "execute_online",
    "VmReport",
    "vm_performance_report",
    "activity_statistics",
    "scheduler_comparison",
    "makespan_trend",
    "ExecutionReport",
    "SciCumulusRL",
]
