"""Execution traces: text Gantt rendering.

``gantt_text`` turns a :class:`~repro.sim.metrics.SimulationResult`
into an ASCII Gantt chart, one row per VM, which is how the examples
visualize where HEFT and ReASSIgN place work without any plotting
dependency.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.metrics import ActivationRecord, SimulationResult

__all__ = ["gantt_text"]


def _label_char(activation_id: int) -> str:
    """A compact per-activation glyph: 0-9, then a-z, A-Z, then '#'."""
    if activation_id < 10:
        return str(activation_id)
    if activation_id < 36:
        return chr(ord("a") + activation_id - 10)
    if activation_id < 62:
        return chr(ord("A") + activation_id - 36)
    return "#"


def gantt_text(result: SimulationResult, width: int = 100) -> str:
    """Render the run as an ASCII Gantt chart.

    Each VM row shows one line per concurrently used slot; cells carry the
    glyph of the activation occupying that slot (see :func:`_label_char`).
    """
    if width < 10:
        raise ValueError("width must be >= 10")
    if not result.records:
        return "(empty trace)"
    makespan = result.makespan
    if makespan <= 0:
        return "(zero-length trace)"
    scale = width / makespan

    # Assign records to display lanes per VM (interval graph colouring).
    by_vm: Dict[int, List[ActivationRecord]] = {}
    for record in sorted(result.records, key=lambda r: (r.vm_id, r.start_time)):
        by_vm.setdefault(record.vm_id, []).append(record)

    lines = [f"Gantt of {result.workflow_name!r}  makespan={makespan:.2f}s"]
    for vm_id in sorted(by_vm):
        lanes: List[List[ActivationRecord]] = []
        for record in by_vm[vm_id]:
            placed = False
            for lane in lanes:
                if lane[-1].finish_time <= record.start_time + 1e-9:
                    lane.append(record)
                    placed = True
                    break
            if not placed:
                lanes.append([record])
        for lane_idx, lane in enumerate(lanes):
            row = [" "] * width
            for record in lane:
                lo = int(record.start_time * scale)
                hi = max(lo + 1, int(record.finish_time * scale))
                glyph = _label_char(record.activation_id)
                for k in range(lo, min(hi, width)):
                    row[k] = glyph
            prefix = f"vm{vm_id:<3}" if lane_idx == 0 else "     "
            lines.append(f"{prefix}|{''.join(row)}|")
    lines.append(f"      0{' ' * (width - 8)}{makespan:8.1f}s")
    return "\n".join(lines)
