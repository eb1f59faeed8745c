"""Targets, fidelity, genuineness, and the end-to-end scheme report."""

import dataclasses
import math

import numpy as np
import pytest

from sculpt import analysis, circuit, compiler, fock, sim
from sculpt.analysis import (fidelity, genuine_entanglement,
                             oracle_qubit_state, schmidt_rank, target_state,
                             verify_scheme)
from sculpt.bigraph import ghz, type5, w
from sculpt.sculpting import QubitState

R2 = 1.0 / math.sqrt(2.0)


def test_target_ghz2_is_bell():
    q = target_state("ghz", 2)
    assert np.allclose(q.amps, [R2, 0, 0, R2])


def test_target_w3():
    q = target_state("w", 3)
    nz = np.flatnonzero(np.abs(q.amps) > 1e-12)
    assert sorted(nz) == [0b001, 0b010, 0b100]
    assert np.allclose(q.amps[nz], 1 / math.sqrt(3))


def test_target_type5():
    q = target_state("type5", 3)
    nz = np.flatnonzero(np.abs(q.amps) > 1e-12)
    assert sorted(nz) == [0b000, 0b100, 0b101, 0b110, 0b111]
    assert np.allclose(q.amps[nz], 1 / math.sqrt(5))
    with pytest.raises(ValueError):
        target_state("type5", 4)
    with pytest.raises(ValueError):
        target_state("ghz", 1)


def test_fidelity_basic():
    q = target_state("ghz", 3)
    assert abs(fidelity(q, q) - 1.0) < 1e-12
    e0 = QubitState(np.eye(8)[0])
    e1 = QubitState(np.eye(8)[1])
    assert fidelity(e0, e1) == 0.0
    with pytest.raises(ValueError):
        fidelity(e0, target_state("ghz", 2))


def test_fidelity_ghz_w_disjoint():
    assert abs(fidelity(target_state("ghz", 3), target_state("w", 3))) < 1e-12


def test_fidelity_symmetric_and_phase_invariant():
    rng = np.random.default_rng(0)
    a = QubitState(rng.normal(size=8) + 1j * rng.normal(size=8))
    b = QubitState(rng.normal(size=8) + 1j * rng.normal(size=8))
    assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-12
    c = QubitState(np.exp(0.7j) * b.amps)
    assert abs(fidelity(a, b) - fidelity(a, c)) < 1e-12


def test_genuine_targets():
    assert genuine_entanglement(target_state("ghz", 3))
    assert genuine_entanglement(target_state("ghz", 5))
    assert genuine_entanglement(target_state("w", 4))
    assert genuine_entanglement(target_state("type5", 3))


def test_product_state_not_genuine():
    uniform = np.full(8, 1 / math.sqrt(8), dtype=complex)  # a product state
    assert not genuine_entanglement(QubitState(uniform))


def test_plus_tensor_bell_not_genuine():
    bell = np.array([R2, 0, 0, R2], dtype=complex)
    vec = np.kron(np.array([R2, R2]), bell)
    assert not genuine_entanglement(QubitState(vec))


def test_single_qubit_never_genuine():
    assert not genuine_entanglement(QubitState(np.array([1.0, 0.0])))


def test_genuine_invariant_under_local_unitaries():
    rng = np.random.default_rng(42)
    q = target_state("w", 3)
    tensor = q.amps.reshape(2, 2, 2)
    for _ in range(5):
        us = []
        for _ in range(3):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u, _ = np.linalg.qr(z)
            us.append(u)
        rotated = np.einsum("ai,bj,ck,ijk->abc", *us, tensor).reshape(8)
        assert genuine_entanglement(QubitState(rotated))


def test_schmidt_rank_matches_explicit_reshape():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        amps /= np.linalg.norm(amps)
        q = QubitState(amps)
        for k in range(1, n):
            party = tuple(range(k))
            mat = amps.reshape(2 ** k, 2 ** (n - k))
            expect = int(np.sum(np.linalg.svd(mat, compute_uv=False) > 1e-9))
            assert schmidt_rank(q, party) == expect


def test_oracle_qubit_state_matches_targets():
    for kind, g in (("ghz", ghz(3)), ("w", w(3)), ("type5", type5())):
        assert fidelity(oracle_qubit_state(g), target_state(kind, 3)) > 1 - 1e-9


def test_verify_scheme_ghz3():
    rep = verify_scheme(ghz(3), "ghz", 3)
    assert rep.epm and rep.no_bunching and rep.genuine
    assert abs(rep.p_with_ff - 1 / 32) < 1e-9
    assert abs(rep.p_without_ff - 1 / 64) < 1e-9
    assert rep.oracle_target_fidelity > 1 - 1e-9
    assert rep.n_correctable == rep.n_outcomes == 8
    assert rep.min_corrected_fidelity > 1 - 1e-9
    assert any("P_ff = 1/32" in line for line in rep.lines())
    assert fock.rationalize(rep.p_with_ff) == "1/32"


def test_verify_scheme_runs_the_oracle_once(monkeypatch):
    calls = []
    real = analysis.apply_sculpting

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "apply_sculpting", counting)
    rep = verify_scheme(ghz(3), "ghz", 3)
    assert abs(rep.p_with_ff - 1 / 32) < 1e-9
    assert len(calls) == 1


@pytest.mark.parametrize("field,value", [
    ("epm", False), ("no_bunching", False), ("genuine", False),
    ("oracle_target_fidelity", 0.5), ("n_correctable", 0), ("min_corrected_fidelity", 0.5),
])
def test_scheme_report_passes_only_when_every_check_holds(field, value):
    rep = verify_scheme(ghz(2), "ghz", 2)
    assert rep.passes(fock.ATOL)
    assert not dataclasses.replace(rep, **{field: value}).passes(fock.ATOL)


def test_verify_scheme_validates_the_circuit_once(monkeypatch):
    calls = []

    def counting(c):
        calls.append(c)
        return circuit.validate(c)

    # compile_graph leaves validation to run_heralded; a validate that the
    # compiler imported again would be counted too
    monkeypatch.setattr(compiler, "validate", counting, raising=False)
    monkeypatch.setattr(sim, "validate", counting)
    rep = verify_scheme(ghz(3), "ghz", 3)
    assert abs(rep.p_with_ff - 1 / 32) < 1e-9
    assert len(calls) == 1


@pytest.mark.parametrize("kind,n,p_ff,p_no_ff", [
    ("ghz", 6, 1 / 2 ** 11, 1 / 2 ** 12),
    ("ghz", 7, 1 / 2 ** 13, 1 / 2 ** 14),
    ("ghz", 8, 1 / 2 ** 15, 1 / 2 ** 16),
    ("w", 5, 1 / 2 ** 10, None),
    ("w", 6, 1 / 2 ** 12, None),
])
def test_verify_scheme_closed_forms_at_larger_n(kind, n, p_ff, p_no_ff):
    # the paper's N-partite closed forms past the acceptance table:
    # GHZ 1/2^(2n-1) with and 1/2^(2n) without feed-forward, W 1/2^(2n)
    rep = verify_scheme({"ghz": ghz, "w": w}[kind](n), kind, n)
    assert math.isclose(rep.p_with_ff, p_ff, rel_tol=1e-9)
    if p_no_ff is not None:
        assert math.isclose(rep.p_without_ff, p_no_ff, rel_tol=1e-9)
    assert rep.n_correctable == rep.n_outcomes > 0
    assert rep.min_corrected_fidelity > 1 - 1e-9
    assert rep.genuine
