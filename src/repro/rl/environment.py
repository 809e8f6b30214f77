"""The workflow state constants of §III-A.

``WORKFLOW_STATES`` enumerates the paper's 4-valued workflow state space
S: two live states and two terminal states.  ReASSIgN is driven by the
simulator (the environment pushes decisions to the agent), so the MDP
itself lives in :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["WORKFLOW_STATES", "AVAILABLE", "UNAVAILABLE", "SUCCESS", "FAILURE"]

#: the workflow states of §III-A
AVAILABLE = "available"
UNAVAILABLE = "unavailable"
SUCCESS = "successfully finished"
FAILURE = "finished with failure"

WORKFLOW_STATES: Tuple[str, ...] = (AVAILABLE, UNAVAILABLE, SUCCESS, FAILURE)
