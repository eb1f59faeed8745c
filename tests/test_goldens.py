"""Staged pipeline states checked termwise against hand-derived algebra.

The expectation builders live in golden_stages.py; every stage of each
scheme is asserted individually here, plus the all-first-detector residual
of each three-party scheme.
"""

import pytest

import golden_stages as gs
from sculpt import sim
from sculpt.analysis import fidelity, target_state


CASES = [("ghz", 2), ("ghz", 3), ("ghz", 4), ("w", 2), ("w", 3), ("type5", 3)]


@pytest.mark.parametrize("kind,n", CASES)
@pytest.mark.parametrize("stage", gs.STAGE_NAMES)
def test_stage_matches_reference_algebra(kind, n, stage):
    gs.assert_stage(kind, n, stage)


@pytest.mark.parametrize("kind", ["ghz", "w", "type5"])
def test_all_first_detector_residual_is_the_target(kind):
    # heralding with every click on the first wire of each detector group
    # (mixer output port 0) leaves the target exactly, with no feed-forward
    # correction needed
    _, c, _ = gs.setup(kind, 3)
    first_wires = [grp.wires[0] for grp in c.detector_groups]
    for oc in sim.run_heralded(c):
        pattern = dict(oc.pattern)
        if all(pattern.get(w, 0) == 1 for w in first_wires):
            qs = sim.residual_qubits(oc, c)
            assert fidelity(qs, target_state(kind, 3)) > 1 - 1e-9
            break
    else:
        pytest.fail("no all-first-detector pattern found")
