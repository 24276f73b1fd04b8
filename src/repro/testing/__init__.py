"""Test-support utilities that ship with the package.

:mod:`repro.testing.faults` is the fault-injection harness used by the
chaos test suite.  It is intentionally part of the installed package
(not the test tree) so that subprocesses — CLI servers, crash-matrix
children — can arm the same plan.
"""

from repro.testing.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    arm,
    armed,
    disarm,
    fault_point,
    recording,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "arm",
    "armed",
    "disarm",
    "fault_point",
    "recording",
]
