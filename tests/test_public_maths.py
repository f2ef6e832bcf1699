"""Pinned values of the public maths functions on small random models.

tests/data/public_maths.json was captured by tests/public_maths.py. Every
later version must reproduce its values to 1e-12 relative.
"""
import json
import math

import pytest

from public_maths import DATA, case_inputs, public_maths

CASES = json.loads(DATA.read_text())


@pytest.mark.parametrize("case", CASES, ids=[f"case{i}" for i in range(len(CASES))])
def test_public_maths_match_captured_values(case):
    got = public_maths(*case_inputs(case))
    assert got.keys() == case["outputs"].keys()
    for key, expected in case["outputs"].items():
        assert len(got[key]) == len(expected), key
        for a, b in zip(got[key], expected):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15), (key, a, b)
