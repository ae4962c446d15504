"""Golden outputs: the five studies at small configurations reproduce the files
that ``make_golden.py`` wrote, floats at rtol 1e-12 and everything else exactly."""

import json
import math
import re

import pytest

from make_golden import CONFIGS, GOLDEN, study_outputs

RTOL = 1e-12


def same_value(got, want):
    """Floats agree at RTOL (so a stored 0.0 must stay 0.0); ints, bools,
    strings and None agree exactly and in type."""
    if isinstance(want, float) and type(got) is float:
        return math.isfinite(got) and abs(got - want) <= RTOL * abs(want)
    if isinstance(want, (list, dict)) and type(got) is type(want) and len(got) == len(want):
        pairs = zip(got, want) if isinstance(want, list) else ((got.get(k), want[k]) for k in want)
        return all(same_value(g, w) for g, w in pairs)
    return type(got) is type(want) and got == want


def csv_cells(text):
    """A CSV text as rows of cells: ints, floats, or the strings the tables hold."""
    def parse(cell):
        if re.fullmatch(r"-?\d+", cell):
            return int(cell)
        try:
            return float(cell)
        except ValueError:
            return cell
    return [[parse(cell) for cell in line.split(",")] for line in text.splitlines()]


def test_same_value_detection():
    assert same_value(1.0 + 5e-13, 1.0)
    assert not same_value(1.0 + 5e-12, 1.0)
    assert not same_value(1e-300, 0.0)
    assert not same_value(8.0, 8) and not same_value(True, 1) and not same_value(None, 0.0)
    assert not same_value([1.0], [1.0, 2.0]) and not same_value({"a": 1}, {"b": 1})
    assert csv_cells("level,eoc\n8,\n16,0.5\n") == [["level", "eoc"], [8, ""], [16, 0.5]]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_outputs(name, tmp_path):
    files = study_outputs(name, tmp_path)
    golden = {path.name: path.read_text(encoding="utf-8") for path in (GOLDEN / name).iterdir()}
    assert sorted(files) == sorted(golden)
    for file_name, text in golden.items():
        if file_name == "summary.json":
            got, want = json.loads(files[file_name]), json.loads(text)
        else:
            got, want = csv_cells(files[file_name]), csv_cells(text)
        assert same_value(got, want), f"{name}/{file_name} moved from its golden values"
