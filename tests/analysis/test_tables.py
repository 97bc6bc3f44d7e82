"""Tests for table rendering and literature data."""

from __future__ import annotations

import pytest

from repro.analysis import (
    TABLE7_LITERATURE,
    TABLE8_FPL21,
    format_table,
    ratio_note,
)


def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 2.5], ["xx", 0.001]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert set(lines[2]) <= {"-", "+"}
    assert len(lines) == 5


def test_float_formatting():
    out = format_table(["v"], [[1234.5678], [0.0001234], [0.5], [0.0]])
    assert "1.23e+03" in out
    assert "0.000123" in out
    assert "0.5" in out


def test_ratio_note():
    assert ratio_note(2.0, 1.0) == "2.00x of paper"
    assert ratio_note(1.0, 0.0) == "n/a"


def test_literature_platform_lookup():
    lola = next(e for e in TABLE7_LITERATURE if e.system == "LoLa")
    p = lola.platform("mnist")
    assert p.latency_seconds == 2.2
    assert p.tdp_watts == 880
    with pytest.raises(ValueError):
        next(e for e in TABLE7_LITERATURE if e.system == "CryptoNets").platform(
            "cifar"
        )


def test_literature_table_contents():
    systems = {e.system for e in TABLE7_LITERATURE}
    assert {"CryptoNets", "LoLa", "Falcon", "A*FV", "EVA"} <= systems
    assert [e.layer for e in TABLE8_FPL21] == ["conv1", "conv2_3"]
