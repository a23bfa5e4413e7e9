"""The traced benchmark finds every method it wraps.

``perfbench/tracing.py`` wraps its spans by name, reading each method from
its class ``__dict__`` (``FlowTime.value``, ``InverseMap.value``,
``CircleInverse.lift``, ...), so a target moved to a base class breaks the
traced run with a ``KeyError``.  This test installs the tracer once and
checks that leaving it restores the original methods.  It only reads the
``perfbench`` files."""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import difflab.cli  # noqa: E402,F401  (the tracer wraps difflab.cli too)
import tracing  # noqa: E402
from difflab import FlowTime, IntervalDiffeo  # noqa: E402


def test_tracer_installs_and_restores():
    with tracing.Tracer().installed():
        assert FlowTime.value is not IntervalDiffeo.value
    assert FlowTime.value is IntervalDiffeo.value
    assert FlowTime.log_deriv is IntervalDiffeo.log_deriv
