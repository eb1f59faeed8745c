"""Staged pipeline states checked termwise against hand-derived algebra.

The expectation builders live in golden_stages.py; every stage of each
scheme is asserted individually here, plus the all-first-detector residual
of the six-subtractor scheme.
"""

import pytest

import golden_stages as gs
from sculpt import sim
from sculpt.analysis import fidelity, target_state


CASES = [("ghz", 2), ("ghz", 3), ("ghz", 4), ("w", 2), ("w", 3), ("type5", 3)]


@pytest.fixture(scope="module")
def compiled():
    return {(kind, n): gs.setup(kind, n) for kind, n in CASES}


@pytest.mark.parametrize("kind,n", CASES)
@pytest.mark.parametrize("stage", gs.STAGE_NAMES)
def test_stage_matches_reference_algebra(compiled, kind, n, stage):
    g, c, L = compiled[(kind, n)]
    gs.assert_stage(kind, g, c, L, stage)


def test_all_first_detector_residual_is_type5_target(compiled):
    # heralding with every click on mixer output port 0 leaves the
    # five-term target exactly (no feed-forward correction needed)
    g, c, L = compiled[("type5", 3)]
    outcomes = sim.run_heralded(c)
    first_wires = {grp.gid: L.blocks[grp.gid].det_wires[0]
                   for grp in c.detector_groups}
    for oc in outcomes:
        pattern = dict(oc.pattern)
        if all(pattern.get(w, 0) == 1 for w in first_wires.values()):
            qs = sim.residual_qubits(oc, c)
            assert fidelity(qs, target_state("type5", 3)) > 1 - 1e-9
            break
    else:
        pytest.fail("no all-first-detector pattern found")


def test_all_first_detector_residual_is_w_target(compiled):
    g, c, L = compiled[("w", 3)]
    outcomes = sim.run_heralded(c)
    first_wires = {grp.gid: L.blocks[grp.gid].det_wires[0]
                   for grp in c.detector_groups}
    for oc in outcomes:
        pattern = dict(oc.pattern)
        if all(pattern.get(w, 0) == 1 for w in first_wires.values()):
            qs = sim.residual_qubits(oc, c)
            assert fidelity(qs, target_state("w", 3)) > 1 - 1e-9
            break
    else:
        pytest.fail("no all-first-detector pattern found")


def test_all_first_detector_residual_is_ghz_target(compiled):
    g, c, L = compiled[("ghz", 3)]
    outcomes = sim.run_heralded(c)
    first_wires = {grp.gid: L.blocks[grp.gid].det_wires[0]
                   for grp in c.detector_groups}
    for oc in outcomes:
        pattern = dict(oc.pattern)
        if all(pattern.get(w, 0) == 1 for w in first_wires.values()):
            qs = sim.residual_qubits(oc, c)
            assert fidelity(qs, target_state("ghz", 3)) > 1 - 1e-9
            break
    else:
        pytest.fail("no all-first-detector pattern found")
