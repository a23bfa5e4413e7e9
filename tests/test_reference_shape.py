"""The stored benchmark reference and the program agree in shape.

The 17 default commands and the seed-0 ``interval_certify`` items run
through ``perfbench/workloads.py`` and are compared with
``perfbench/reference.json`` by ``perfbench/refcheck.compare`` with a float
tolerance of 1e300: keys, list lengths, types, integers, strings and
booleans must match, and float values are left to the benchmark.  A
dropped or retyped pinned key (an int written as a float) fails here.
The test only reads those files."""

import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import refcheck  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)

# every float passes; everything else must match exactly
_ANY_FLOAT = 1e300


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_results_have_the_shape_of_the_reference(name, tmp_path):
    refs = REFERENCE["workloads"][name]
    items = workloads.WORKLOADS[name].build(REFERENCE["seed"], str(tmp_path))
    assert sorted(item.name for item in items) == sorted(refs)
    for item in items:
        diffs = refcheck.compare(refs[item.name], item.run(), 0.0, _ANY_FLOAT)
        assert diffs == [], f"{name}/{item.name}: {diffs}"
