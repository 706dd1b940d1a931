import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "deep_cost.py"
spec = importlib.util.spec_from_file_location("deep_cost", SCRIPT)
deep_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(deep_cost)


def test_prints_one_line_per_field_and_d(capsys, monkeypatch):
    monkeypatch.setattr(deep_cost, "REPEAT", 1)
    assert deep_cost.main(["deep_cost.py", "--d", "3", "4", "--samples", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["field", "d", "specs", "fast_ms", "deep_ms", "ratio"]
    assert [row.split()[:2] for row in rows] == [
        [label, d] for label in deep_cost.FIELDS for d in ("3", "4")]
    for row in rows:
        _, _, specs, fast, deep, ratio = row.split()
        assert int(specs) > 0
        # the ratio of the unrounded medians, to two places
        assert ratio.endswith("x")
        assert abs(float(ratio[:-1]) - float(deep) / float(fast)) < 0.01


def test_refuses_a_nonpositive_count(capsys):
    with pytest.raises(SystemExit) as info:
        deep_cost.main(["deep_cost.py", "--samples", "0"])
    assert info.value.code == 2
    assert "positive integers" in capsys.readouterr().err
