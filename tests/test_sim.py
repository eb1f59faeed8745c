"""Element unitaries, herald enumeration, feed-forward classification."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (add_scaled, amplitude, assert_same_outcomes, from_counts,
                     naive_solve_correction, reference_outcomes, signature_distribution,
                     total_photons)
from sculpt import bigraph, fock, sim
from sculpt.bigraph import ghz, w
from sculpt.circuit import (Circuit, DetectorGroup, HWP, Multiport, PBS,
                            ReturnMerge, Source, Swap, UHWP, Wire)
from sculpt.compiler import CompileError, compile_graph, to_dual_rail
from sculpt.fock import FockState
from sculpt.analysis import oracle_qubit_state, target_state
from sculpt.sculpting import QubitState

R2 = 1.0 / math.sqrt(2.0)


def _two_loc_circuit():
    wires = [Wire(0, "a", "H"), Wire(1, "a", "V"), Wire(2, "b", "H"), Wire(3, "b", "V")]
    return wires


def test_hwp_turns_pair_into_bunches():
    # a†_H a†_V -> a†_D a†_A = (a†²_H - a†²_V)/2
    state = from_counts({0: 1, 1: 1})
    out = sim.apply_element(state, HWP("a", 0, 1))
    expect = add_scaled(
        fock.scale(from_counts({0: 2}), 0.5 * math.sqrt(2)),
        -0.5 * math.sqrt(2), from_counts({1: 2}))
    assert fock.allclose(out, expect)


def test_uhwp_on_diagonal_photon():
    # a†_D -> a†_V under the rotated plate
    state = add_scaled(fock.scale(from_counts({0: 1}), R2), R2,
                       from_counts({1: 1}))
    out = sim.apply_element(state, UHWP("a", 0, 1))
    assert fock.allclose(out, from_counts({1: 1}))


def test_pbs_convention():
    el = PBS("a", "b", 0, 1, 2, 3)
    assert fock.allclose(sim.apply_element(from_counts({0: 1}), el),
                         from_counts({0: 1}))
    assert fock.allclose(sim.apply_element(from_counts({1: 1}), el),
                         from_counts({3: 1}))
    assert fock.allclose(sim.apply_element(from_counts({3: 1}), el),
                         from_counts({1: 1}))
    assert fock.allclose(sim.apply_element(from_counts({2: 1}), el),
                         from_counts({2: 1}))


def test_balanced_splitter_convention():
    el = Multiport(((0,), (1,)))
    out = sim.apply_element(from_counts({0: 1}), el)
    expect = add_scaled(fock.scale(from_counts({0: 1}), R2), R2,
                        from_counts({1: 1}))
    assert fock.allclose(out, expect)
    out1 = sim.apply_element(from_counts({1: 1}), el)
    expect1 = add_scaled(fock.scale(from_counts({0: 1}), R2), -R2,
                         from_counts({1: 1}))
    assert fock.allclose(out1, expect1)


def test_tritter_is_fourier():
    el = Multiport(((0,), (1,), (2,)))
    w3 = np.exp(2j * math.pi / 3)
    out = sim.apply_element(from_counts({1: 1}), el)
    for k in range(3):
        expect = w3 ** k / math.sqrt(3)
        assert abs(amplitude(out, {k: 1}) - expect) < 1e-12


def test_source_normalization():
    out = sim.apply_element(FockState.vacuum(), Source(0, 2))
    assert abs(fock.norm2(out) - 1.0) < 1e-12


def test_unknown_element_rejected():
    with pytest.raises(sim.SimulationError):
        sim.apply_element(FockState.vacuum(), object())


@pytest.mark.parametrize("element", [
    HWP("a", 0, 1),
    UHWP("a", 0, 1),
    PBS("a", "b", 0, 1, 2, 3),
    Multiport(((0, 1), (2, 3))),
    Multiport(((0,), (2,), (3,))),
    Swap(((0, 2), (2, 0))),
])
def test_elements_preserve_norm_and_photon_number(element):
    rng = np.random.default_rng(3)
    terms = {}
    for _ in range(5):
        occ = tuple(sorted({w: int(rng.integers(1, 3))
                            for w in rng.choice(4, size=2, replace=False)}.items()))
        terms[occ] = complex(rng.normal(), rng.normal())
    state = FockState(terms)
    out = sim.apply_element(state, element)
    assert abs(fock.norm2(out) - fock.norm2(state)) < 1e-9
    assert total_photons(out) == total_photons(state)


def test_signature_distribution_sums_to_one():
    for g in (ghz(2), ghz(3), w(2)):
        c = compile_graph(g)
        dist = signature_distribution(c)
        assert abs(sum(dist.values()) - 1.0) < 1e-9


def test_run_heralded_total_mass():
    c = compile_graph(ghz(3))
    outcomes = sim.run_heralded(c)
    assert len(outcomes) == 8
    assert abs(sum(oc.probability for oc in outcomes) - 1.0 / 32.0) < 1e-9
    for oc in outcomes:
        assert abs(fock.norm2(oc.residual) - 1.0) < 1e-9


PRESETS = ([("ghz", n) for n in (2, 3, 4, 5)]
           + [("w", n) for n in (2, 3, 4)] + [("type5", 3)])
ENCODINGS = pytest.mark.parametrize("dual_rail", [False, True],
                                    ids=["polarization", "dual-rail"])


def _preset_circuit(kind, n, dual_rail):
    c = compile_graph(bigraph.preset(kind, n))
    return to_dual_rail(c) if dual_rail else c


@functools.lru_cache(maxsize=None)
def _preset_reference(kind, n):
    # both encodings share wire ids and element unitaries, so the full
    # propagation of the polarization circuit is the reference for both
    return reference_outcomes(_preset_circuit(kind, n, False))


@pytest.mark.parametrize("kind,n", PRESETS)
@ENCODINGS
def test_eager_heralding_matches_full_propagation(kind, n, dual_rail):
    c = _preset_circuit(kind, n, dual_rail)
    assert_same_outcomes(sim.run_heralded(c), _preset_reference(kind, n))


@given(seed=st.integers(0, 2 ** 32 - 1), n_main=st.sampled_from([2, 3]),
       n_anc=st.sampled_from([0, 1]))
@settings(max_examples=30, deadline=None)
def test_eager_heralding_matches_full_propagation_on_random_graphs(seed, n_main, n_anc):
    g = bigraph.random_epm(np.random.default_rng(seed), n_main, n_anc,
                           realizable=True)
    try:
        c = compile_graph(g)
    except CompileError:
        assume(False)
    assert_same_outcomes(sim.run_heralded(c), reference_outcomes(c))


@pytest.mark.parametrize("kind,n", PRESETS)
@ENCODINGS
def test_herald_schedule_filters_after_the_tap_off(kind, n, dual_rail):
    # the tap-off (a PBS, or a rail swap in dual-rail) is a permutation and
    # is folded away; each group is projected right after the plate in front
    # of its block's last tap-off: the last subtract-stage element joining
    # the group's mixer span to an output wire, so before any which-path
    # mixer.  The folded lists of both encodings place alike.
    c = _preset_circuit(kind, n, dual_rail)
    elements = sim._on_final_wires(c)
    first_mix = next(i for i, el in enumerate(elements) if el.stage == "mix")
    placed = {grp.gid: i for i, filters in sim._herald_schedule(c, elements).items()
              for grp, _ in filters}
    assert sorted(placed) == sorted(grp.gid for grp in c.detector_groups)
    for grp in c.detector_groups:
        span = set(grp.wires)
        for el in elements[first_mix:]:
            if span & set(el.wires_used()):
                span |= set(el.wires_used())
        plate = max(i for i, el in enumerate(elements)
                    if el.stage == "subtract" and span & set(el.wires_used())
                    and set(c.outputs) & set(el.wires_used()))
        assert placed[grp.gid] == plate < first_mix
    if kind == "type5":
        assert sorted(placed.values()) == [18, 20, 22, 24, 26, 29]


def test_source_after_a_herald_filter_point_is_counted():
    # the detector wire's photon comes from a source placed last, so no
    # filter may be projected before that source
    wires = [Wire(0, "a", "H"), Wire(1, "a", "V")]
    c = Circuit(wires, [Source(0, 1), Source(1, 1)], [DetectorGroup(1, (1,), 1)],
                outputs=[0], output_modes=["a"])
    outcomes = sim.run_heralded(c)
    assert len(outcomes) == 1
    assert_same_outcomes(outcomes, reference_outcomes(c))


def test_filter_set_never_spans_two_detector_groups():
    # a swap links the two groups' wires; one filter set over both would
    # count two photons and reject the only outcome
    wires = [Wire(0, "a", "H"), Wire(1, "a", "V"), Wire(2, "b", "H"),
             Wire(3, "b", "V")]
    c = Circuit(wires, [Source(0, 1), Source(1, 1), Swap(((0, 1), (1, 0)))],
                [DetectorGroup(1, (0,), 1), DetectorGroup(2, (1,), 1)],
                outputs=[2], output_modes=["b"])
    outcomes = sim.run_heralded(c)
    assert len(outcomes) == 1
    assert_same_outcomes(outcomes, reference_outcomes(c))


def test_detector_budget_exceeding_photons_gives_no_outcomes():
    wires = [Wire(0, "a", "H"), Wire(1, "a", "V")]
    c = Circuit(wires, [Source(0, 1)], [DetectorGroup(1, (1,), 3)],
                outputs=[0], output_modes=["a"])
    assert sim.run_heralded(c) == []


def _wires(m):
    return [Wire(i, f"m{i // 2}", "HV"[i % 2]) for i in range(m)]


@st.composite
def small_circuits(draw):
    """A valid circuit on 4-6 wires: up to 8 sources, wave plates, PBSs,
    swaps, merges and 2-3-port multiports on random wires, in any order,
    with at most 5 photons in all, and 0-2 random detector groups.  Every
    other wire is an output."""
    m = draw(st.integers(4, 6))

    def distinct(k):
        return list(draw(st.permutations(range(m)))[:k])

    def permutation():
        ws = distinct(draw(st.integers(0, m)))
        return tuple(zip(ws, draw(st.permutations(ws))))

    elements, photons = [], 0
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["source", "hwp", "uhwp", "pbs", "swap", "merge",
                                     "multiport"]))
        if kind == "source":
            n = draw(st.integers(0, min(2, 5 - photons)))
            photons += n
            elements.append(Source(distinct(1)[0], n))
        elif kind in ("hwp", "uhwp"):
            elements.append((HWP if kind == "hwp" else UHWP)("m0", *distinct(2)))
        elif kind == "pbs":
            elements.append(PBS("m0", "m1", *distinct(4)))
        elif kind == "swap":
            elements.append(Swap(permutation()))
        elif kind == "merge":
            elements.append(ReturnMerge("m0", permutation()))
        else:
            n, arity = draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
            ws = distinct(n * arity)
            elements.append(Multiport(tuple(tuple(ws[j * arity:(j + 1) * arity])
                                            for j in range(n))))
    groups, free = [], distinct(m)
    for gid in range(draw(st.integers(0, 2))):
        size = draw(st.integers(1, 2))
        groups.append(DetectorGroup(gid, tuple(free[:size]), draw(st.integers(0, 2))))
        free = free[size:]
    return Circuit(_wires(m), elements, groups, outputs=sorted(free), output_modes=[])


@given(small_circuits())
@settings(max_examples=200, deadline=None)
def test_factored_propagation_matches_full_propagation(c):
    assert_same_outcomes(sim.run_heralded(c), reference_outcomes(c))


def test_swap_trades_photons_between_unjoined_factors():
    # wires 0 and 1 hold one and two photons in two factors; the swap only
    # renames them, so it is folded into the sources: the photon of wire 0
    # is born on wire 1 and the pair of wire 1 on wire 0.  The filter on
    # {1, 2}, placed after the third photon's source, counts one photon from
    # wire 0 plus the new one and meets the required 2 (with the swap
    # ignored, {1, 2} would hold 3).  The beam splitters then join wire 1
    # with the third photon, and wire 0 with vacuum.
    elements = [Source(0, 1), Source(1, 2), Swap(((0, 1), (1, 0))), Source(2, 1),
                Multiport(((1,), (2,))), Multiport(((0,), (3,)))]
    c = Circuit(_wires(6), elements,
                [DetectorGroup(0, (1, 2), 2), DetectorGroup(1, (3,), 1)],
                outputs=[0, 4, 5], output_modes=[])
    folded = sim._on_final_wires(c)
    assert folded == [Source(1, 1), Source(0, 2)] + elements[3:]
    assert sim._herald_schedule(c, folded) == {2: [(c.detector_groups[0], {1, 2})],
                                               4: [(c.detector_groups[1], {3})]}
    outcomes = sim.run_heralded(c)
    assert [oc.pattern for oc in outcomes] == [((1, 2), (3, 1)), ((2, 2), (3, 1))]
    assert_same_outcomes(outcomes, reference_outcomes(c))


@pytest.mark.parametrize("required,kept", [(0, True), (1, False)])
def test_filter_span_that_no_factor_owns(required, kept):
    # the detector wire sees no element, so its count is 0 at the filter
    c = Circuit(_wires(4), [Source(0, 1), HWP("m0", 0, 1)],
                [DetectorGroup(0, (2,), required)], outputs=[0, 1, 3], output_modes=[])
    assert sim._on_final_wires(c) == c.elements
    assert sim._herald_schedule(c, c.elements) == {0: [(c.detector_groups[0], {2})]}
    outcomes = sim.run_heralded(c)
    assert bool(outcomes) == kept
    assert_same_outcomes(outcomes, reference_outcomes(c))


def test_zero_photon_source():
    # the source on wire 0 owns it in vacuum; the wave plate must merge
    # that factor with the photon on wire 1
    c = Circuit(_wires(4), [Source(0, 0), Source(1, 1), HWP("m0", 0, 1)],
                [DetectorGroup(0, (1,), 1)], outputs=[0, 2, 3], output_modes=[])
    outcomes = sim.run_heralded(c)
    assert len(outcomes) == 1 and abs(outcomes[0].probability - 0.5) < 1e-12
    assert_same_outcomes(outcomes, reference_outcomes(c))


def test_stray_photon_in_an_accepted_signature_raises():
    # the photon on wire 1 is swapped onto circuit wire 3, which is neither
    # a detector nor an output; storage wire 1 is an output
    c = Circuit(_wires(4), [Source(0, 1), Source(1, 1), Swap(((1, 3), (3, 1)))],
                [DetectorGroup(0, (0,), 1)], outputs=[1, 2], output_modes=[])
    with pytest.raises(sim.SimulationError, match=r"non-output wires \[3\]"):
        sim.run_heralded(c)


def test_stray_photon_in_a_rejected_signature_is_dropped():
    # the filter, placed after the source, fixes the count on {0, 1} only;
    # the branch that leaves the photon on wire 1, off the outputs, misses
    # the detector and is rejected by the final count check, not raised
    c = Circuit(_wires(4), [Source(0, 1), Multiport(((0,), (1,)))],
                [DetectorGroup(0, (0,), 1)], outputs=[2, 3], output_modes=[])
    assert sim._on_final_wires(c) == c.elements
    assert sim._herald_schedule(c, c.elements) == {0: [(c.detector_groups[0], {0, 1})]}
    outcomes = sim.run_heralded(c)
    assert [oc.pattern for oc in outcomes] == [((0, 1),)]
    assert abs(outcomes[0].probability - 0.5) < 1e-12
    assert_same_outcomes(outcomes, reference_outcomes(c))


@pytest.mark.parametrize("mapping", [((0, 1),), ((0, 1), (1, 1))], ids=["open", "collapsing"])
def test_non_permutation_swap_raises_without_check(mapping):
    c = Circuit(_wires(4), [Source(0, 1), Swap(mapping)], [], outputs=[0, 1, 2, 3],
                output_modes=[])
    with pytest.raises(ValueError, match="not a permutation"):
        sim.run_heralded(c, check=False)
    with pytest.raises(ValueError, match="not a permutation"):
        sim.apply_element(from_counts({0: 1}), Swap(mapping))


@pytest.mark.parametrize("kind,n,peak", [("type5", 3, 720), ("ghz", 5, 64), ("ghz", 8, 512)])
@ENCODINGS
def test_peak_terms(monkeypatch, kind, n, peak, dual_rail):
    # the largest factor any element returns; full-state propagation
    # peaked at 2304, 128 and 1024
    c = _preset_circuit(kind, n, dual_rail)
    sizes = []
    apply_element = sim.apply_element

    def counted(state, el):
        out = apply_element(state, el)
        sizes.append(out.num_terms())
        return out

    monkeypatch.setattr(sim, "apply_element", counted)
    sim.run_heralded(c)
    assert max(sizes) <= peak


def test_heralded_ghz_all_upper_residual():
    g = ghz(3)
    c = compile_graph(g)
    outcomes = sim.run_heralded(c)
    target = oracle_qubit_state(g)
    classified = sim.classify_feedforward(outcomes, target, c)
    identity = [oc for oc in classified if oc.identity]
    # sign-even patterns: half of all, each leaving the target exactly
    assert len(identity) == 4
    for oc in classified:
        assert oc.correction is not None
        assert oc.corrected_fidelity >= 1 - 1e-9
    # residuals of identity outcomes match (|+++> + |--->)/r2 exactly
    for oc in identity:
        qs = sim.residual_qubits(oc, c)
        assert abs(abs(np.vdot(target.amps, qs.amps)) - 1.0) < 1e-9


def test_w_outcomes_need_phase_corrections():
    g = w(3)
    c = compile_graph(g)
    outcomes = sim.run_heralded(c)
    target = oracle_qubit_state(g)
    classified = sim.classify_feedforward(outcomes, target, c)
    assert all(oc.correction is not None for oc in classified)
    labels = {l for oc in classified for l in oc.correction}
    # the final Fourier port forces corrections beyond sign flips
    assert any(l.startswith("P(") for l in labels)
    p_ff = sim.success_probability(classified, "with_ff")
    assert abs(p_ff - 1.0 / 64.0) < 1e-9


def test_success_probability_modes():
    g = ghz(2)
    c = compile_graph(g)
    classified = sim.classify_feedforward(sim.run_heralded(c),
                                          oracle_qubit_state(g), c)
    assert abs(sim.success_probability(classified, "with_ff") - 1.0 / 8.0) < 1e-9
    assert abs(sim.success_probability(classified, "without_ff") - 1.0 / 16.0) < 1e-9
    with pytest.raises(ValueError):
        sim.success_probability(classified, "sideways")


def test_dual_rail_outcomes_match_polarization():
    g = w(3)
    c = compile_graph(g)
    d = to_dual_rail(c)
    pol = sorted(round(oc.probability, 12) for oc in sim.run_heralded(c))
    rail = sorted(round(oc.probability, 12) for oc in sim.run_heralded(d))
    assert pol == rail


def _pm_output_strings(g):
    from sculpt.bigraph import CircleKind, perfect_matchings

    kinds = {c.label: c.kind for c in g.circles()}
    strings = []
    for pm in perfect_matchings(g):
        kept = {}
        for idx in pm:
            e = g.edges[idx]
            if kinds[e.mode] is CircleKind.MAIN:
                kept[e.mode] = e.state.name
        strings.append(tuple(kept[str(j)] for j in range(1, g.n_main + 1)))
    return strings


def test_random_realizable_graphs_herald_the_oracle_state():
    # whenever distinct perfect matchings produce distinct output strings,
    # every herald outcome's residual matches the oracle state termwise in
    # magnitude (phases are pattern-dependent and handled by feed-forward);
    # colliding matchings interfere pattern-dependently and are skipped
    from sculpt import bigraph
    from sculpt.analysis import oracle_qubit_state
    from sculpt.compiler import CompileError, compile_graph
    from sculpt.sculpting import apply_sculpting, no_bunching_check, oracle_wires

    rng = np.random.default_rng(424242)
    checked = 0
    tried = 0
    while checked < 12 and tried < 200:
        tried += 1
        g = bigraph.random_epm(rng, int(rng.integers(2, 4)),
                               int(rng.integers(0, 3)), realizable=True)
        table = oracle_wires(g)
        final = apply_sculpting(g, table=table)
        if final.is_zero() or not no_bunching_check(final, g, table):
            continue
        strings = _pm_output_strings(g)
        if len(set(strings)) != len(strings):
            continue
        try:
            c = compile_graph(g)
        except CompileError:
            continue
        oracle = oracle_qubit_state(g)
        outcomes = sim.run_heralded(c)
        assert outcomes, "a scheme with matchings must herald something"
        om = np.abs(oracle.amps)
        for oc in outcomes:
            qs = sim.residual_qubits(oc, c)
            assert np.allclose(np.abs(qs.amps), om, atol=1e-9)
        checked += 1
    assert checked == 12


def _solve(residual: QubitState, target: QubitState, atol: float = 1e-9):
    """``classify_feedforward`` on one outcome whose residual reads as
    ``residual``: (labels, fidelity), or None when no correction fits."""
    n = target.n_qubits
    outcome = sim.HeraldOutcome(((99, 1),), 1.0, _rail_state(residual.amps, n))
    cl, = sim.classify_feedforward([outcome], target, _qubit_rails_circuit(n), atol)
    return None if cl.correction is None else (cl.correction, cl.corrected_fidelity)


def test_solve_correction_target_equals_residual():
    t = target_state("w", 3)
    labels, fid = _solve(t, t)
    assert all(l == "I" for l in labels) and fid > 1 - 1e-12


def test_solve_correction_bit_flip():
    t = target_state("ghz", 2)
    flipped = QubitState(t.amps[np.array([1, 0, 3, 2])])
    labels, fid = _solve(flipped, t)
    assert fid > 1 - 1e-9
    assert any(l.startswith("X") for l in labels)


def test_solve_correction_ignores_the_phase_of_a_target_entry_below_the_fit_tolerance():
    # the target's last amplitude is inside its support but under the 1e-7
    # fit tolerance, where the residual is exactly zero: that entry must
    # impose no phase, and the fidelity is 1 - 2.2e-15
    t = QubitState(np.array([1, 0, 0, 5e-8], dtype=complex))
    residual = QubitState(np.array([1, 0, 0, 0], dtype=complex))
    labels, fid = _solve(residual, t)
    assert labels == ("I", "I") and fid > 1 - 1e-14
    naive_labels, naive_fid = naive_solve_correction(residual, t, fock.ATOL)
    assert naive_labels == labels and abs(naive_fid - fid) < 1e-15


def test_solve_correction_drops_the_phase_equation_of_a_target_entry_below_the_fit_tolerance():
    # the zero residual entry faces a 5e-8 target entry: an equation asking
    # phase 0 there contradicts the others, yet P(pi/2) on both modes
    # reaches fidelity 1 - 9e-16
    t = QubitState(np.array([1, 1j, 1j, 5e-8]))
    residual = QubitState(np.array([1, 1, 1, 0]) / math.sqrt(3))
    labels, fid = _solve(residual, t)
    assert labels == ("P(1/2pi)", "P(1/2pi)") and fid > 1 - 1e-14
    naive_labels, naive_fid = naive_solve_correction(residual, t, fock.ATOL)
    assert naive_labels == labels and abs(naive_fid - fid) < 1e-15


def test_classify_rejects_a_target_of_another_qubit_count():
    outcome = sim.HeraldOutcome(((9, 1),), 1.0, _rail_state(target_state("ghz", 2).amps, 2))
    with pytest.raises(ValueError, match="qubit counts differ"):
        sim.classify_feedforward([outcome], target_state("ghz", 3), _qubit_rails_circuit(2))


def test_solve_correction_reports_failure():
    t = target_state("ghz", 2)
    other = QubitState(np.array([1, 0, 0, 0], dtype=complex))
    assert _solve(other, t) is None


@pytest.mark.parametrize("kind,n", PRESETS)
@ENCODINGS
def test_classify_matches_per_outcome_solve_correction(kind, n, dual_rail):
    c = _preset_circuit(kind, n, dual_rail)
    target = oracle_qubit_state(bigraph.preset(kind, n))
    outcomes = sim.run_heralded(c)
    classified = sim.classify_feedforward(outcomes, target, c)
    assert len(classified) == len(outcomes)
    for oc, cl in zip(outcomes, classified):
        qs = sim.residual_qubits(oc, c)
        labels, fid = naive_solve_correction(qs, target, fock.ATOL)
        assert cl.correction == labels, oc.pattern
        assert cl.identity == all(l == "I" for l in labels)
        assert abs(cl.corrected_fidelity - fid) <= fock.ATOL


@pytest.mark.parametrize("kind,n", [("w", 7), ("ghz", 10)])
def test_classify_matches_the_reference_on_larger_schemes(kind, n):
    g = bigraph.preset(kind, n)
    c = compile_graph(g)
    target = oracle_qubit_state(g)
    outcomes = sim.run_heralded(c)
    classified = sim.classify_feedforward(outcomes, target, c)
    assert len(classified) == len(outcomes)
    for oc, cl in zip(outcomes, classified):
        assert cl.pattern == oc.pattern
        labels, fid = naive_solve_correction(sim.residual_qubits(oc, c), target, fock.ATOL)
        assert cl.correction == labels, oc.pattern
        assert abs(cl.corrected_fidelity - fid) <= fock.ATOL


@st.composite
def corrected_pairs(draw):
    """A random target on 1-4 qubits and the residual that a random local
    correction X^a diag(1, e^{i phi}) per qubit, phi a multiple of pi/4,
    maps back onto it, up to a global phase."""
    n = draw(st.integers(1, 4))
    size = 2 ** n
    mags = draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 1.0]),
                         min_size=size, max_size=size))
    assume(any(mags))
    phases = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=size, max_size=size))
    t = np.array(mags) * np.exp(1j * np.array(phases))
    a_mask = draw(st.integers(0, size - 1))
    x = np.array(draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))) * math.pi / 4
    bits = (np.arange(size)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    # corrected[b] = e^{i b.x} r[b ^ a] must equal t[b]
    r = np.empty(size, dtype=complex)
    r[np.arange(size) ^ a_mask] = t * np.exp(-1j * (bits @ x))
    glob = np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    return QubitState(r * glob).normalized(), QubitState(t).normalized()


@given(corrected_pairs())
@settings(max_examples=200, deadline=None)
def test_solve_correction_undoes_a_random_local_correction(pair):
    residual, target = pair
    found = _solve(residual, target, fock.ATOL)
    assert found is not None
    assert found[1] >= 1 - fock.ATOL


def _phase_solutions(rows, angles, n):
    """sim._phase_solutions on a batch of one right-hand side."""
    batch = np.array(angles, dtype=float).reshape(len(rows), 1)
    return [x[0] for ok, x in sim._phase_solutions(rows, batch, n) if ok[0]]


def test_phase_solver_unit_pivots():
    rows = [np.array([1, 1, 0]), np.array([0, 1, 1])]
    angles = [0.5, -0.25]
    sols = _phase_solutions(rows, angles, 3)
    assert sols
    for x in sols:
        assert abs((rows[0] @ x) - 0.5) < 1e-9
        assert abs((rows[1] @ x) + 0.25) < 1e-9


def test_phase_solver_negates_a_negative_pivot_with_its_angle():
    # eliminating x0 leaves -x1 + x2 first, which pivots on a -1
    rows = [np.array([1, 1, 0]), np.array([1, 0, 1]), np.array([0, 1, 1])]
    truth = np.array([0.25, 1.0, -0.5]) * math.pi
    angles = [sim._wrap(float(r @ truth)) for r in rows]
    sols = _phase_solutions(rows, angles, 3)
    assert sols
    for x in sols:
        for r, a in zip(rows, angles):
            assert abs(sim._wrap(float(r @ x) - a)) < 1e-9


def test_phase_solver_branches_on_scaled_pivot():
    # 2x = theta (mod 2pi) has two solutions per period
    sols = _phase_solutions([np.array([2])], [1.0], 1)
    vals = sorted(float(x[0]) % (2 * math.pi) for x in sols)
    assert len(vals) == 2
    assert abs(vals[0] - 0.5) < 1e-9
    assert abs(vals[1] - (0.5 + math.pi)) < 1e-9


def test_phase_solver_detects_inconsistency():
    rows = [np.array([1, -1]), np.array([1, -1])]
    angles = [0.3, 1.1]
    assert _phase_solutions(rows, angles, 2) == []


def test_phase_solver_keeps_each_systems_consistency_apart():
    # x0 - x1 appears twice; only the second system's angles agree
    rows = [np.array([1, -1]), np.array([1, -1])]
    angles = np.array([[0.3, 0.7], [1.1, 0.7]])
    sols = list(sim._phase_solutions(rows, angles, 2))
    assert len(sols) == 1
    ok, x = sols[0]
    assert ok.tolist() == [False, True]
    assert abs(x[1, 0] - x[1, 1] - 0.7) < 1e-12


def _qubit_rails_circuit(n):
    """A circuit whose outputs are n polarization modes and nothing else."""
    wires = [Wire(2 * j + b, f"m{j}", "HV"[b]) for j in range(n) for b in (0, 1)]
    return Circuit(wires, [], [], [w.id for w in wires], [f"m{j}" for j in range(n)])


def _rail_state(vec, n):
    """The one-photon-per-mode Fock state whose diagonal-rail reading is vec."""
    terms = {}
    for idx, amp in enumerate(vec):
        bits = [(idx >> (n - 1 - j)) & 1 for j in range(n)]
        terms[tuple((2 * j + b, 1) for j, b in enumerate(bits))] = amp
    return FockState(terms)


@st.composite
def residual_batches(draw):
    """A random target on 1-4 qubits and 1-12 residuals:
    each is the target under a random local correction (any bit-flip mask,
    phases in multiples of pi/4, any global phase), such a residual with a
    1e-6 amplitude leaked off the target's support, the target's magnitudes
    under a bit flip with random phases, or random amplitudes.  A 5e-8
    magnitude lies inside the target's support (|t| > 1e-10) but below the
    1e-7 cut-off of the per-row count; a 1.5e-7 one poses a phase equation
    yet sits within 2e-7 of zero."""
    n = draw(st.integers(1, 4))
    size = 2 ** n
    mag = st.sampled_from([0.0, 5e-8, 1.5e-7, 0.1, 0.3, 0.5, 0.7, 1.0])
    angle = st.floats(0.0, 2 * math.pi)
    mags = np.array(draw(st.lists(mag, min_size=size, max_size=size)))
    assume(mags.any())
    t = mags * np.exp(1j * np.array(draw(st.lists(angle, min_size=size, max_size=size))))
    t /= np.linalg.norm(t)
    bits = (np.arange(size)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    rows = []
    kinds = st.sampled_from(["corrected", "leaky", "scrambled", "random"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=12)):
        a_mask = draw(st.integers(0, size - 1))
        phases = np.exp(1j * np.array(draw(st.lists(angle, min_size=size, max_size=size))))
        r = np.empty(size, dtype=complex)
        if kind in ("corrected", "leaky"):
            # corrected[b] = e^{i b.x} r[b ^ a] must equal t[b]
            x = np.array(draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))) * math.pi / 4
            r[np.arange(size) ^ a_mask] = t * np.exp(-1j * (bits @ x)) * phases[0]
            if kind == "leaky":
                off = np.flatnonzero(mags == 0)
                if off.size:
                    r[draw(st.sampled_from(off.tolist())) ^ a_mask] = 1e-6 * phases[1]
        elif kind == "scrambled":
            r[np.arange(size) ^ a_mask] = np.abs(t) * phases
        else:
            r = np.array(draw(st.lists(mag, min_size=size, max_size=size))) * phases
        assume(np.linalg.norm(r) > 1e-3)
        rows.append(r)
    return QubitState(t), rows


@given(residual_batches())
@settings(max_examples=200, deadline=None)
def test_classify_batch_matches_the_per_outcome_reference(batch):
    target, rows = batch
    n = target.n_qubits
    c = _qubit_rails_circuit(n)
    outcomes = [sim.HeraldOutcome(((100 + i, 1),), 1.0, _rail_state(v, n))
                for i, v in enumerate(rows)]
    classified = sim.classify_feedforward(outcomes, target, c, fock.ATOL)
    for oc, cl in zip(outcomes, classified):
        found = naive_solve_correction(sim.residual_qubits(oc, c), target, fock.ATOL)
        if found is None:
            assert cl.correction is None and cl.corrected_fidelity is None
            continue
        labels, fid = found
        assert cl.correction == labels
        assert cl.identity == all(l == "I" for l in labels)
        assert abs(cl.corrected_fidelity - fid) <= fock.ATOL


@pytest.mark.parametrize("terms,message", [
    ({((0, 1), (2, 1)): 1.0, ((1, 1), (5, 1)): 1.0}, "outside the qubit rails"),
    ({((0, 2),): 1.0}, "not one boson per mode"),
    ({((0, 1), (1, 1)): 1.0}, "not one boson per mode"),
    ({((0, 1),): 1.0}, "not one boson per mode"),
], ids=["off-rails", "bunched", "both-rails", "empty-mode"])
def test_classify_rejects_a_residual_that_is_not_one_photon_per_mode(terms, message):
    c = _qubit_rails_circuit(2)
    good = sim.HeraldOutcome(((9, 1),), 0.5, _rail_state(target_state("ghz", 2).amps, 2))
    bad = sim.HeraldOutcome(((9, 2),), 0.5, FockState(terms))
    with pytest.raises(ValueError, match=message):
        sim.classify_feedforward([good, bad], target_state("ghz", 2), c)

