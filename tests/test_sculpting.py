"""Oracle layer: initial states, sculpting application, matchings prediction,
qubit extraction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import add_scaled, create, from_counts, naive_hadamard_all, total_photons
from sculpt import bigraph, fock
from sculpt.analysis import oracle_qubit_state
from sculpt.bigraph import Edge, InternalState, SculptingBigraph, ghz, type5, w
from sculpt.fock import FockState
from sculpt.sculpting import (QubitState, apply_sculpting, hadamard_all,
                              initial_state, no_bunching_check, oracle_wires,
                              pm_predict, to_qubit_state)

R2 = 1.0 / math.sqrt(2.0)


def plus_minus_state(table: dict, signs: str, coeff: complex) -> FockState:
    """coeff * prod_j a†_{j,±}|vac> in the (mode, level) wire universe."""
    out = FockState.vacuum()
    for j, s in enumerate(signs, start=1):
        w0 = table[(str(j), 0)]
        w1 = table[(str(j), 1)]
        plus = add_scaled(fock.scale(create(out, w0), R2), R2, create(out, w1))
        minus = add_scaled(fock.scale(create(out, w0), R2), -R2, create(out, w1))
        out = plus if s == "+" else minus
    return fock.scale(out, coeff)


def test_initial_state_single_mode():
    g = SculptingBigraph(1, (), ())
    table = oracle_wires(g)
    assert table == {("1", 0): 0, ("1", 1): 1}
    assert fock.allclose(initial_state(g, table), from_counts({0: 1, 1: 1}))


def test_initial_state_photon_counts():
    # 2n + k photons: W 3 has one ancilla, type5 three
    assert total_photons(initial_state(w(3), oracle_wires(w(3)))) == {7}
    assert total_photons(initial_state(type5(), oracle_wires(type5()))) == {9}


def test_oracle_wires_number_the_circles_in_order():
    g = type5()
    table = oracle_wires(g)
    labels = [c.label for c in g.circles()]
    assert list(table) == [(label, level) for label in labels for level in (0, 1)]
    assert list(table.values()) == list(range(2 * len(labels)))


def test_ghz_sculpting_closed_form():
    for n in (2, 3, 4):
        g = ghz(n)
        table = oracle_wires(g)
        out = apply_sculpting(g, table=table)
        expect = add_scaled(plus_minus_state(table, "+" * n, 1.0), 1.0,
                            plus_minus_state(table, "-" * n, 1.0))
        expect = fock.scale(expect, 1.0 / math.sqrt(2.0 ** n))
        assert fock.allclose(out, expect)
        assert abs(fock.norm2(out) - 2.0 / 2 ** n) < 1e-9


def test_w_sculpting_closed_form():
    for n in (2, 3):
        g = w(n)
        table = oracle_wires(g)
        out = apply_sculpting(g, table=table)
        expect = FockState()
        for k in range(1, n + 1):
            signs = "".join("-" if j == k else "+" for j in range(1, n + 1))
            expect = add_scaled(expect, 1.0, plus_minus_state(table, signs, 1.0))
        expect = fock.scale(expect, -1.0 / math.sqrt(2.0 ** n * n))
        assert fock.allclose(out, expect)
        assert abs(fock.norm2(out) - 1.0 / 2 ** n) < 1e-9


def test_type5_sculpting_closed_form():
    g = type5()
    table = oracle_wires(g)
    out = apply_sculpting(g, table=table)
    expect = FockState()
    for signs in ("+++", "-++", "-+-", "--+", "---"):
        expect = add_scaled(expect, 1.0 / 12.0,
                            plus_minus_state(table, signs, 1.0))
    assert fock.allclose(out, expect)
    assert abs(fock.norm2(out) - 5.0 / 144.0) < 1e-9


def test_no_bunching():
    g = ghz(3)
    table = oracle_wires(g)
    assert no_bunching_check(apply_sculpting(g, table=table), g, table)
    assert not no_bunching_check(initial_state(ghz(2), oracle_wires(ghz(2))), ghz(2))
    assert no_bunching_check(FockState(), g)


def test_dot_order_independence():
    # the oracle applies dots in id order, so renumbering the dots reorders them
    g = w(3)
    table = oracle_wires(g)
    base = apply_sculpting(g, table=table)
    for order in ([4, 3, 2, 1], [2, 4, 1, 3]):
        rank = {dot: i for i, dot in enumerate(order, start=1)}
        edges = tuple(replace(e, dot=rank[e.dot]) for e in g.edges)
        renumbered = SculptingBigraph(g.n_main, g.ancillas, edges)
        assert fock.allclose(apply_sculpting(renumbered, table=table), base)


def test_pm_predict_matches_sculpting_on_presets():
    for g in (ghz(2), ghz(3), ghz(4), w(2), w(3), w(4), type5()):
        table = oracle_wires(g)
        assert fock.allclose(apply_sculpting(g, table=table),
                             pm_predict(g, table=table))


def test_pm_predict_random_epm_graphs():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        g = bigraph.random_epm(rng, int(rng.integers(2, 4)), int(rng.integers(0, 3)))
        table = oracle_wires(g)
        assert fock.allclose(apply_sculpting(g, table=table),
                             pm_predict(g, table=table))


def test_pm_predict_rejects_non_epm():
    g = SculptingBigraph(1, (), (Edge("1", 1, 1.0, InternalState.zero()),))
    with pytest.raises(ValueError):
        pm_predict(g)


def test_pm_predict_no_matching_gives_zero():
    edges = (Edge("1", 1, R2, InternalState.plus()),
             Edge("1", 2, R2, InternalState.minus()),
             Edge("2", 1, R2, InternalState.plus()),
             Edge("2", 2, -R2, InternalState.minus()),
             Edge("A", 3, 1.0, InternalState.zero()),
             Edge("B", 3, 0.0, InternalState.zero()))
    g = SculptingBigraph(2, ("A", "B"), edges)
    # four circles, three dots: no perfect matching exists
    assert bigraph.perfect_matchings(g) == []
    assert pm_predict(g).is_zero()


def test_to_qubit_state_single_mode():
    # rail 1 is bit 1, and the reading is normalized
    w0, w1 = 0, 1
    q = to_qubit_state(fock.scale(from_counts({w1: 1}), 3.0), [(w0, w1)])
    assert np.allclose(q.amps, [0.0, 1.0])


def test_to_qubit_state_ghz_both_bases():
    g = ghz(3)
    table = oracle_wires(g)
    out = apply_sculpting(g, table=table)
    # read straight off the levels: equal-weight spread over even-parity strings
    rails = [(table[(str(j), 0)], table[(str(j), 1)]) for j in (1, 2, 3)]
    levels = to_qubit_state(out, rails)
    expect_c = np.zeros(8)
    for idx in (0b000, 0b011, 0b101, 0b110):
        expect_c[idx] = 0.5
    assert np.allclose(levels.amps, expect_c, atol=1e-9)
    # the oracle's reading is in the diagonal basis: (|+++> + |--->)/r2
    expect = np.zeros(8)
    expect[0] = expect[7] = R2
    assert np.allclose(oracle_qubit_state(g).amps, expect, atol=1e-9)
    assert np.array_equal(oracle_qubit_state(g).amps,
                          QubitState(hadamard_all(levels.amps)).amps)


def test_to_qubit_state_w():
    q = oracle_qubit_state(w(3))
    expect = np.zeros(8, dtype=complex)
    expect[0b100] = expect[0b010] = expect[0b001] = 1 / math.sqrt(3)
    # global sign is physical: compare up to phase
    overlap = abs(np.vdot(expect, q.amps))
    assert abs(overlap - 1.0) < 1e-9


def test_to_qubit_state_rejects_bunching():
    w0, w1 = 0, 1
    bunched = from_counts({w0: 2})
    with pytest.raises(ValueError):
        to_qubit_state(bunched, [(w0, w1)])


def test_hadamard_involution():
    rng = np.random.default_rng(5)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert np.allclose(hadamard_all(hadamard_all(v)), v)


@pytest.mark.parametrize("n", range(0, 7))
def test_hadamard_matches_the_pairwise_reference_row_by_row(n):
    # a stack of rows is transformed row by row, with the same float operations
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(3, 2 ** n)) + 1j * rng.normal(size=(3, 2 ** n))
    out = hadamard_all(rows)
    for row, got in zip(rows, out):
        assert np.array_equal(got, naive_hadamard_all(row))
    assert np.array_equal(hadamard_all(rows[0]), naive_hadamard_all(rows[0]))


def test_qubit_state_validation():
    with pytest.raises(ValueError):
        QubitState(np.zeros(3))
    with pytest.raises(ValueError, match="zero state has no qubit reading"):
        QubitState(np.zeros(4))
    # a qubit state is a unit vector by construction
    unit = QubitState(np.array([3.0, 4.0])).amps
    assert np.allclose(unit, [0.6, 0.8], rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="zero state has no qubit reading"):
        to_qubit_state(FockState(), [(0, 1)])
