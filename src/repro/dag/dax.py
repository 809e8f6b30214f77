"""Pegasus DAX XML reading and writing.

The paper obtains Montage from the Pegasus *Workflow Generator* page, which
publishes workflows in the DAX (Directed Acyclic Graph in XML) format also
consumed by WorkflowSim.  This module parses the subset of DAX used by
those traces (``job`` elements with a ``runtime`` attribute and ``uses``
file links, plus explicit ``child``/``parent`` relations) and can write a
workflow back out, so synthetic workflows round-trip through the on-disk
format.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Dict, List, Union

from repro.dag.activation import Activation, File
from repro.dag.graph import Workflow
from repro.util.validate import ValidationError

__all__ = ["parse_dax", "parse_dax_file", "write_dax"]

_DAX_NS = "http://pegasus.isi.edu/schema/DAX"


def _strip_ns(tag: str) -> str:
    """Drop any ``{namespace}`` prefix from an element tag."""
    return tag.rsplit("}", 1)[-1]


def _job_numeric_id(raw: str) -> int:
    """Convert a DAX job id like ``ID00007`` to the integer 7."""
    digits = "".join(ch for ch in raw if ch.isdigit())
    if not digits:
        raise ValidationError(f"cannot derive a numeric id from job id {raw!r}")
    return int(digits)


def _number(raw: str, job: str, attribute: str) -> float:
    """A DAX numeric attribute as a finite float >= 0."""
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(
            f"job {job!r}: {attribute} {raw!r} is not a number"
        ) from None
    if not math.isfinite(value) or value < 0:
        raise ValidationError(
            f"job {job!r}: {attribute} must be a finite number >= 0, "
            f"got {raw!r}"
        )
    return value


def parse_dax(text: str, name: str = "dax-workflow") -> Workflow:
    """Parse DAX XML text into a :class:`~repro.dag.graph.Workflow`.

    File-implied dependencies and explicit ``child/parent`` relations are
    both honoured.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ValidationError(f"malformed DAX XML: {exc}") from exc
    if _strip_ns(root.tag) != "adag":
        raise ValidationError(f"expected <adag> root element, got <{root.tag}>")

    wf = Workflow(root.get("name", name))
    raw_to_numeric: Dict[str, int] = {}

    for elem in root:
        if _strip_ns(elem.tag) != "job":
            continue
        raw_id = elem.get("id")
        if raw_id is None:
            raise ValidationError("job element without an id attribute")
        activity = elem.get("name", "unknown")
        runtime_attr = elem.get("runtime")
        if runtime_attr is None:
            raise ValidationError(f"job {raw_id!r} missing runtime attribute")
        runtime = _number(runtime_attr, raw_id, "runtime")

        inputs: List[File] = []
        outputs: List[File] = []
        for uses in elem:
            if _strip_ns(uses.tag) != "uses":
                continue
            fname = uses.get("file") or uses.get("name")
            if fname is None:
                raise ValidationError(f"uses element in job {raw_id!r} has no file")
            size = _number(
                uses.get("size", "0"), raw_id, f"size of {fname!r}"
            )
            link = (uses.get("link") or "").lower()
            f = File(name=fname, size_bytes=size)
            if link == "input":
                inputs.append(f)
            elif link == "output":
                outputs.append(f)
            else:
                raise ValidationError(
                    f"uses element for {fname!r} has unknown link {link!r}"
                )

        numeric = _job_numeric_id(raw_id)
        if numeric in wf:
            raise ValidationError(f"duplicate numeric job id {numeric} (from {raw_id!r})")
        raw_to_numeric[raw_id] = numeric
        wf.add_activation(
            Activation(
                id=numeric,
                activity=activity,
                runtime=max(runtime, 1e-9),
                inputs=tuple(inputs),
                outputs=tuple(outputs),
            )
        )

    for elem in root:
        if _strip_ns(elem.tag) != "child":
            continue
        child_raw = elem.get("ref")
        if child_raw not in raw_to_numeric:
            raise ValidationError(f"child ref {child_raw!r} names an unknown job")
        for parent in elem:
            if _strip_ns(parent.tag) != "parent":
                continue
            parent_raw = parent.get("ref")
            if parent_raw not in raw_to_numeric:
                raise ValidationError(f"parent ref {parent_raw!r} names an unknown job")
            wf.add_dependency(raw_to_numeric[parent_raw], raw_to_numeric[child_raw])

    # file-implied dependencies (some DAX exporters omit child elements)
    wf.infer_data_dependencies()
    wf.validate()
    return wf


def parse_dax_file(path: Union[str, Path], name: str = "") -> Workflow:
    """Parse a DAX file from disk."""
    path = Path(path)
    return parse_dax(path.read_text(encoding="utf-8"), name or path.stem)


def write_dax(workflow: Workflow, path: Union[str, Path, None] = None) -> str:
    """Serialize a workflow to DAX XML; optionally write it to ``path``.

    Returns the XML text.  Ids are written in the standard ``ID%05d``
    format so the output re-parses to the same numeric ids.
    """
    root = ET.Element(
        "adag",
        {
            "xmlns": _DAX_NS,
            "name": workflow.name,
            "jobCount": str(len(workflow)),
            "childCount": str(workflow.edge_count),
        },
    )
    for ac in workflow.activations:
        job = ET.SubElement(
            root,
            "job",
            {
                "id": f"ID{ac.id:05d}",
                "name": ac.activity,
                "runtime": f"{ac.runtime:.6f}",
            },
        )
        for f in ac.inputs:
            ET.SubElement(
                job,
                "uses",
                {"file": f.name, "link": "input", "size": f"{f.size_bytes:.0f}"},
            )
        for f in ac.outputs:
            ET.SubElement(
                job,
                "uses",
                {"file": f.name, "link": "output", "size": f"{f.size_bytes:.0f}"},
            )

    for child_id in workflow.activation_ids:
        parent_ids = workflow.parents(child_id)
        if not parent_ids:
            continue
        child = ET.SubElement(root, "child", {"ref": f"ID{child_id:05d}"})
        for pid in parent_ids:
            ET.SubElement(child, "parent", {"ref": f"ID{pid:05d}"})

    text = ET.tostring(root, encoding="unicode")
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
