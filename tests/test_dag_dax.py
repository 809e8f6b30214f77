"""Tests for repro.dag.dax — Pegasus DAX XML I/O."""

import pytest

from repro.dag import parse_dax, parse_dax_file, write_dax
from repro.util.validate import ValidationError
from repro.workflows import montage

SAMPLE_DAX = """<?xml version="1.0" encoding="UTF-8"?>
<adag xmlns="http://pegasus.isi.edu/schema/DAX" name="sample" jobCount="3">
  <job id="ID00000" name="mProjectPP" runtime="13.59">
    <uses file="raw.fits" link="input" size="4200000"/>
    <uses file="proj.fits" link="output" size="8000000"/>
  </job>
  <job id="ID00001" name="mDiffFit" runtime="10.9">
    <uses file="proj.fits" link="input" size="8000000"/>
    <uses file="fit.tbl" link="output" size="300000"/>
  </job>
  <job id="ID00002" name="mConcatFit" runtime="143.0">
    <uses file="fit.tbl" link="input" size="300000"/>
  </job>
  <child ref="ID00001"><parent ref="ID00000"/></child>
  <child ref="ID00002"><parent ref="ID00001"/></child>
</adag>
"""


class TestParse:
    def test_basic(self):
        wf = parse_dax(SAMPLE_DAX)
        assert wf.name == "sample"
        assert len(wf) == 3
        assert wf.edges == [(0, 1), (1, 2)]

    def test_runtimes_and_files(self):
        wf = parse_dax(SAMPLE_DAX)
        ac = wf.activation(0)
        assert ac.activity == "mProjectPP"
        assert ac.runtime == pytest.approx(13.59)
        assert ac.inputs[0].name == "raw.fits"
        assert ac.outputs[0].size_bytes == 8000000

    def test_data_deps_inferred_without_child_elements(self):
        # drop the explicit child/parent relations: file flow still links them
        text = SAMPLE_DAX.replace(
            '<child ref="ID00001"><parent ref="ID00000"/></child>', ""
        ).replace('<child ref="ID00002"><parent ref="ID00001"/></child>', "")
        wf = parse_dax(text)
        assert (0, 1) in wf.edges  # proj.fits producer->consumer

    def test_malformed_xml(self):
        with pytest.raises(ValidationError):
            parse_dax("<adag><job")

    def test_wrong_root(self):
        with pytest.raises(ValidationError):
            parse_dax("<workflow/>")

    def test_missing_runtime(self):
        with pytest.raises(ValidationError):
            parse_dax('<adag><job id="ID1" name="x"/></adag>')

    @pytest.mark.parametrize(
        "old, new, attribute",
        [
            ('runtime="10.9"', 'runtime="abc"', "runtime"),
            ('runtime="10.9"', 'runtime="-5"', "runtime"),
            ('runtime="10.9"', 'runtime="nan"', "runtime"),
            ('size="300000"', 'size="abc"', "size of 'fit.tbl'"),
            ('size="300000"', 'size="-1"', "size of 'fit.tbl'"),
        ],
    )
    def test_bad_numeric_attribute_names_job(self, old, new, attribute):
        with pytest.raises(ValidationError) as info:
            parse_dax(SAMPLE_DAX.replace(old, new, 1))
        assert "'ID00001'" in str(info.value)
        assert attribute in str(info.value)

    def test_zero_runtime_is_clamped(self):
        wf = parse_dax(SAMPLE_DAX.replace('runtime="10.9"', 'runtime="0"'))
        assert wf.activation(1).runtime == 1e-9

    def test_unknown_child_ref(self):
        text = SAMPLE_DAX.replace('ref="ID00001"', 'ref="ID99999"', 1)
        with pytest.raises(ValidationError):
            parse_dax(text)

    def test_unknown_link_type(self):
        text = SAMPLE_DAX.replace('link="input"', 'link="sideways"', 1)
        with pytest.raises(ValidationError):
            parse_dax(text)


class TestRoundTrip:
    def test_montage_round_trip(self):
        wf = montage(25, seed=7)
        text = write_dax(wf)
        back = parse_dax(text)
        assert len(back) == len(wf)
        assert back.edges == wf.edges
        for i in wf.activation_ids:
            a, b = wf.activation(i), back.activation(i)
            assert a.activity == b.activity
            assert a.runtime == pytest.approx(b.runtime, rel=1e-5)
            assert {f.name for f in a.inputs} == {f.name for f in b.inputs}

    def test_file_io(self, tmp_path):
        wf = montage(25, seed=7)
        path = tmp_path / "montage25.dax"
        write_dax(wf, path)
        back = parse_dax_file(path)
        assert len(back) == 25

    def test_namespaced_output_reparses(self):
        wf = montage(11, seed=0)
        text = write_dax(wf)
        assert "pegasus.isi.edu" in text
        assert len(parse_dax(text)) == 11
