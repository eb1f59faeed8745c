"""Lowering: structural counts, determinism, dual-rail, block semantics."""

import dataclasses
import math

import pytest

from helpers import add_scaled, apply, count_elements, from_counts, strip_wires
from sculpt import compiler, fock
from sculpt.bigraph import Edge, InternalState, SculptingBigraph, ghz, type5, w
from sculpt.circuit import (DUAL_RAIL, CircuitSchemaError, DetectorGroup, Multiport,
                            Source, parse_circuit, serialize_circuit, circuit_to_dot,
                            validate)
from sculpt.compiler import CompileError, compile_graph, to_dual_rail

R2 = 1.0 / math.sqrt(2.0)


def test_ghz_structural_counts():
    for n in (2, 3, 4, 5):
        c = compile_graph(ghz(n))
        assert count_elements(c, "pbs") == 3 * n
        assert len(c.detector_wires()) == 2 * n
        assert count_elements(c, "bs") == 0
        assert count_elements(c, "multiport") == 0
        assert len(c.detector_groups) == n
        assert validate(c) == []


def test_w_structural_counts():
    n = 3
    c = compile_graph(w(n))
    # one n-partite Fourier port fans the ancilla photon out
    assert count_elements(c, "multiport", stage="split", ports=n) == 1
    assert len(c.detector_groups) == n + 1
    assert validate(c) == []


def test_type5_structural_counts():
    c = compile_graph(type5())
    assert count_elements(c, "bs", stage="split") == 1
    assert count_elements(c, "multiport", stage="split", ports=3) == 2
    assert len(c.detector_groups) == 6
    assert validate(c) == []


def test_source_and_prep_counts():
    g = w(3)
    c = compile_graph(g)
    assert count_elements(c, "source") == 2 * 3 + 1
    assert count_elements(c, "hwp", stage="prep") == 3 + 1
    # each of W's general subtractor returns is merged back by a PBS
    assert count_elements(c, "pbs", stage="merge") == 3
    assert len([el for el in c.elements if el.stage == "merge"]) == 3
    # GHZ's optimized returns already sit on their mode locations
    assert not [el for el in compile_graph(ghz(3)).elements if el.stage == "merge"]


def test_compile_deterministic():
    for g in (ghz(3), w(3), type5()):
        assert serialize_circuit(compile_graph(g)) == serialize_circuit(compile_graph(g))


def test_compile_rejects_non_epm():
    edges = list(ghz(3).edges)
    edges[0] = Edge(edges[0].mode, edges[0].dot, edges[0].amplitude,
                    InternalState.zero())
    bad = SculptingBigraph(3, (), tuple(edges))
    with pytest.raises(CompileError) as err:
        compile_graph(bad)
    assert any("circle" in d for d in err.value.diagnostics)


def test_compile_rejects_unequal_magnitudes():
    edges = (Edge("1", 1, 0.6, InternalState.plus()),
             Edge("2", 1, -0.8, InternalState.minus()),
             Edge("2", 2, 0.8, InternalState.plus()),
             Edge("1", 2, -0.6, InternalState.minus()))
    g = SculptingBigraph(2, (), edges)
    with pytest.raises(CompileError) as err:
        compile_graph(g)
    assert any("magnitude" in d for d in err.value.diagnostics)


def test_photon_budget_structure():
    for g in (ghz(3), w(3), type5()):
        c = compile_graph(g)
        n, k = g.n_main, len(g.ancillas)
        sourced = sum(el.photons for el in c.elements if el.kind == "source")
        assert sourced == 2 * n + k
        assert sum(grp.required for grp in c.detector_groups) == n + k
        assert len(c.detector_groups) == len(g.dot_ids())
        assert len(c.outputs) == 2 * n  # one H and one V rail per output mode


def _mixed_return_styles():
    # mode 1 feeds an optimized subtractor with its |+> edge and a general
    # (ancilla-sharing) subtractor with its |-> edge; both returns would
    # land on the same location, which has no known realization
    edges = (Edge("1", 1, R2, InternalState.plus()),
             Edge("2", 1, -R2, InternalState.minus()),
             Edge("2", 2, R2, InternalState.plus()),
             Edge("X", 2, R2, InternalState.zero()),
             Edge("1", 3, -R2, InternalState.minus()),
             Edge("X", 3, R2, InternalState.zero()))
    return SculptingBigraph(2, ("X",), edges)


def test_compile_rejects_mixed_return_styles():
    with pytest.raises(CompileError) as err:
        compile_graph(_mixed_return_styles())
    assert any("collides" in d for d in err.value.diagnostics)


def _mixed_color_with_ancilla():
    # dot 1 takes a |+> and a |-> main leg together with an ancilla leg
    r3 = 1.0 / math.sqrt(3.0)
    edges = (Edge("1", 1, r3, InternalState.plus()),
             Edge("2", 1, -r3, InternalState.minus()),
             Edge("X", 1, r3, InternalState.zero()),
             Edge("2", 2, R2, InternalState.plus()),
             Edge("1", 2, -R2, InternalState.minus()))
    return SculptingBigraph(2, ("X",), edges)


def test_rejections_come_before_any_element_is_built(monkeypatch):
    # each single-fault graph keeps its exact message, and no element is
    # built on the way to it
    def no_element(*args, **kwargs):
        raise AssertionError("an element was built")

    for name in ("Source", "HWP", "UHWP", "PBS", "Multiport", "Swap"):
        monkeypatch.setattr(compiler, name, no_element)
    unequal = SculptingBigraph(2, (), (
        Edge("1", 1, 0.6, InternalState.plus()), Edge("2", 1, -0.8, InternalState.minus()),
        Edge("2", 2, 0.8, InternalState.plus()), Edge("1", 2, -0.6, InternalState.minus())))
    cases = [
        (_mixed_return_styles(), ["mode '1': optimized subtractor return collides with a general "
                     "subtractor return; no known realization"]),
        (unequal, ["dot 1: legs must have equal magnitude 1/sqrt(2)"]),
        (_mixed_color_with_ancilla(),
         ["dot 1: no known subtractor realization for mixed-color main legs "
          "combined with ancilla legs"]),
    ]
    for g, diagnostics in cases:
        with pytest.raises(CompileError) as err:
            compile_graph(g)
        assert err.value.diagnostics == diagnostics


def test_roundtrip_serialization():
    polarization = [compile_graph(g) for g in (ghz(3), w(3), type5())]
    for c in polarization + [to_dual_rail(c) for c in polarization]:
        text = serialize_circuit(c)
        c2 = parse_circuit(text)
        assert serialize_circuit(c2) == text
        assert validate(c2) == []


def test_parse_rejects_unknown_kind():
    c = compile_graph(ghz(2))
    text = serialize_circuit(c).replace('"kind": "hwp"', '"kind": "wat"', 1)
    with pytest.raises(CircuitSchemaError):
        parse_circuit(text)


def test_validate_flags_overlapping_groups():
    c = compile_graph(ghz(2))
    g0 = c.detector_groups[0]
    c.detector_groups.append(g0)
    assert any("overlaps" in d for d in validate(c))


def test_validate_flags_a_detector_group_repeating_a_wire():
    c = compile_graph(ghz(2))
    g0 = c.detector_groups[0]
    c.detector_groups[0] = DetectorGroup(g0.gid, (g0.wires[0],) * 2, g0.required)
    assert validate(c) == [f"detector group {g0.gid} repeats a wire"]


def test_validate_flags_undeclared_wire():
    c = compile_graph(ghz(2))
    c.elements.append(Multiport(((998,), (999,)), "mix"))
    assert any("undeclared" in d for d in validate(c))


@pytest.mark.parametrize("photons", [-1, 1.5])
def test_validate_flags_bad_photon_count(photons):
    c = compile_graph(ghz(2))
    i = next(k for k, el in enumerate(c.elements) if isinstance(el, Source))
    c.elements[i] = dataclasses.replace(c.elements[i], photons=photons)
    assert any("photon count" in d and f"element {i} " in d for d in validate(c))


def test_dual_rail_w3():
    c = compile_graph(w(3))
    d = to_dual_rail(c)
    assert count_elements(d, "pbs") == 0
    assert d.encoding == DUAL_RAIL
    assert validate(d) == []
    # every wave plate becomes exactly one balanced splitter, every PBS one
    # rail swap, and nothing else is added
    plates = count_elements(c, "hwp") + count_elements(c, "uhwp")
    two_ports = count_elements(c, "bs")
    assert count_elements(d, "bs") == plates + two_ports
    assert count_elements(d, "swap") == count_elements(c, "pbs") + count_elements(c, "swap")
    assert len(d.elements) == len(c.elements)
    with pytest.raises(ValueError):
        to_dual_rail(d)


def test_dual_rail_channels_renamed():
    d = to_dual_rail(compile_graph(ghz(2)))
    assert {w.channel for w in d.wires} == {"0", "1"}


def test_circuit_dot_export():
    c = compile_graph(ghz(2))
    dot = circuit_to_dot(c)
    assert "digraph" in dot and "pbs" in dot and "detect" in dot


def _isolated_block_outcomes(g, dot, feed):
    """Build a mini circuit exercising one subtractor block on custom input.

    ``feed`` maps circle labels to the photon monomials entering the block's
    legs; returns herald outcomes of the lone detector group."""
    c = compile_graph(g)
    layout = c.layout
    blk = layout.blocks[dot]
    keep = [el for el in c.elements
            if el.stage in ("subtract", "merge", "mix")
            and set(el.wires_used()) & _block_wires(layout, blk)]
    groups = [grp for grp in c.detector_groups if grp.gid == dot]
    mini = type(c)(c.wires, keep, groups, c.outputs, c.output_modes,
                   c.encoding, layout=layout)
    state = feed
    for el in keep:
        state = apply(state, el)
    det = sorted(groups[0].wires)
    outcomes = []
    for sig, comp in fock.group_by_counts(state, det):
        if sum(n for _, n in sig) == groups[0].required:
            outcomes.append((sig, comp))
    return outcomes


def _block_wires(layout, blk):
    locs = set(blk.tap_locs)
    for leg in blk.main_legs:
        locs |= {leg.leg_loc, leg.tap_loc, leg.ret_loc, leg.circle}
    for leg in blk.anc_legs:
        locs.add(leg.leg_loc)
    wires = set()
    for loc in locs:
        if loc:
            wires |= set(layout.loc_wires[loc].values())
    return wires


def test_optimized_block_acts_like_its_dot():
    # feed dot 1's block of the two-mode ring the paired-bunch input and
    # check the heralded action matches (a_{1,+} - a_{2,-})/r2 applied to
    # the bunches, mode by mode, up to per-pattern phases
    g = ghz(2)
    c = compile_graph(g)
    layout = c.layout
    blk = layout.blocks[1]
    t = blk.main_legs[0].leg_loc      # red leg: carries H photons of mode 1
    b = blk.main_legs[1].leg_loc      # blue leg: carries V photons of mode 2
    th = layout.wire(t, "H")
    bv = layout.wire(b, "V")
    # input (a†²_{t,H} - a†²_{b,V})/2: the relevant two-photon content
    feed = add_scaled(
        fock.scale(from_counts({th: 2}), 0.5 * math.sqrt(2)),
        -0.5 * math.sqrt(2), from_counts({bv: 2}))
    outcomes = _isolated_block_outcomes(g, 1, feed)
    assert len(outcomes) == 2
    for sig, comp in outcomes:
        # one photon detected, one survives on the block's return location
        residual = strip_wires(comp, dict(sig))
        kept = {w for w, _ in next(residual.terms())[0]}
        assert kept <= {layout.wire(t, "H"), layout.wire(t, "V")}
        assert abs(fock.norm2(residual) - 0.25) < 1e-9
