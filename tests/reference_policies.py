"""The linear-scan fair-share rule for the service differential suite.

``reference_fair_select(policy, view)`` is the fair-share dispatch rule
written as one pass over every in-flight job (``view.jobs``): among
jobs with ready work it takes the least ``(share, tenant,
arrival_time, job_id)``.  ``FairSharePolicy.select`` reaches the same
decision through the timeline's per-tenant job index instead.

``ReferenceTimeline`` is a ``FleetTimeline`` whose idle view is rebuilt
from ``Vm.is_idle`` on every call, with no cache.

Neither reads the tenant index or the idle cache, so a run through both
checks the indexed, cached path against an independently written one.
"""

from repro.service.timeline import FleetTimeline


def reference_fair_select(policy, view):
    """``policy``'s fair-share decision by a scan of every in-flight job."""
    chosen = None
    chosen_key = None
    for run in view.jobs:
        if not run.ready_ids:
            continue
        key = (
            policy._share(view, run.job.tenant),
            run.job.tenant,
            run.job.arrival_time,
            run.job.job_id,
        )
        if chosen is None or key < chosen_key:
            chosen = run
            chosen_key = key
    if chosen is None:
        return None
    activation_id = chosen.ready_ids[0]
    vm_id = policy._best_vm(view, chosen, activation_id)
    if vm_id < 0:
        return None
    return (chosen.job.job_id, activation_id, vm_id)


class ReferenceTimeline(FleetTimeline):
    """A fleet timeline without the idle-view cache."""

    def idle_view(self):
        now = self.now
        return tuple(vm for vm in self.fleet if vm.is_idle(now))
