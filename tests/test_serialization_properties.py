"""Property-based round-trip tests for every serialization format."""

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EpisodeRecord
from repro.dag import parse_dax, write_dax, random_layered_dag
from repro.schedulers import SchedulingPlan
from repro.scicumulus import workflow_from_xml, workflow_to_xml
from repro.rl import QTable


@st.composite
def layered_wf(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=999))
    return random_layered_dag(n, edge_density=density, seed=seed)


class TestDaxRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(wf=layered_wf())
    def test_structure_preserved(self, wf):
        back = parse_dax(write_dax(wf))
        assert back.activation_ids == wf.activation_ids
        assert back.edges == wf.edges
        for i in wf.activation_ids:
            a, b = wf.activation(i), back.activation(i)
            assert a.activity == b.activity
            assert b.runtime == pytest.approx(a.runtime, rel=1e-5)
            assert {f.name for f in a.outputs} == {f.name for f in b.outputs}

    @settings(max_examples=25, deadline=None)
    @given(wf=layered_wf())
    def test_double_round_trip_is_stable(self, wf):
        once = write_dax(parse_dax(write_dax(wf)))
        twice = write_dax(parse_dax(once))
        assert once == twice


class TestSciCumulusXmlRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(wf=layered_wf())
    def test_structure_preserved(self, wf):
        back = workflow_from_xml(workflow_to_xml(wf))
        assert back.activation_ids == wf.activation_ids
        assert back.edges == wf.edges
        assert back.name == wf.name


class TestPlanJsonRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_arbitrary_plans(self, data):
        n = data.draw(st.integers(min_value=1, max_value=40))
        vms = data.draw(st.integers(min_value=1, max_value=9))
        assignment = {
            i: data.draw(st.integers(min_value=0, max_value=vms - 1))
            for i in range(n)
        }
        priority = data.draw(st.permutations(list(range(n))))
        plan = SchedulingPlan(assignment=assignment, priority=list(priority),
                              name="fuzz")
        back = SchedulingPlan.from_json(plan.to_json())
        assert back.assignment == plan.assignment
        assert back.priority == plan.priority
        assert back.name == "fuzz"
        # and the JSON itself is valid, stable JSON
        assert json.loads(plan.to_json()) == json.loads(back.to_json())


class TestQTableJsonRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_arbitrary_tables(self, data):
        t = QTable(init_scale=0.0)
        n = data.draw(st.integers(min_value=0, max_value=30))
        for _ in range(n):
            state = data.draw(st.sampled_from(
                ["available", "unavailable", "available:p1"]))
            action = (
                data.draw(st.integers(min_value=0, max_value=60)),
                data.draw(st.integers(min_value=0, max_value=14)),
            )
            value = data.draw(st.floats(min_value=-1e6, max_value=1e6,
                                        allow_nan=False))
            t.set(state, action, value)
        back = QTable.from_json(t.to_json())
        assert back.items() == t.items()


#: (typecode, smallest id that needs it, largest id drawn)
_ID_BANDS = [("B", 0, 255), ("H", 256, 65_535), ("q", 65_536, 2**40)]


@st.composite
def packed_assignment(draw):
    """An assignment whose largest id needs the drawn band's typecode."""
    typecode, low, high = draw(st.sampled_from(_ID_BANDS))
    ids = st.integers(min_value=0, max_value=high)
    keys = draw(st.lists(ids, min_size=1, max_size=60, unique=True))
    assignment = {key: draw(ids) for key in keys}
    # one id in the band itself, as a key or as a VM
    top = draw(st.integers(min_value=low, max_value=high))
    if draw(st.booleans()):
        assignment[top] = draw(ids)
    else:
        assignment[keys[0]] = top
    return typecode, assignment


class TestEpisodeRecordPacking:
    @settings(max_examples=60, deadline=None)
    @given(drawn=packed_assignment())
    def test_pickle_and_dict_round_trips_keep_order(self, drawn):
        typecode, assignment = drawn
        order = list(assignment.items())
        record = EpisodeRecord(4, 812.5, "successfully finished", len(order),
                               0.25, -1.0, assignment)
        assert record._pairs.typecode == typecode
        assignment.clear()  # the record holds its own copy
        for back in (
            pickle.loads(pickle.dumps(record)),
            EpisodeRecord.from_dict(json.loads(json.dumps(record.to_dict()))),
        ):
            assert list(back.assignment.items()) == order
            assert back == record
            assert back == EpisodeRecord(4, 812.5, "successfully finished",
                                         len(order), 0.25, -1.0,
                                         dict(reversed(order)))
