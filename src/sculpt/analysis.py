"""Target states, fidelity, and genuine-multipartite-entanglement checks.

All heralded targets are stated in the diagonal (+/-) per-mode basis: bit 1
of a basis index means the corresponding mode carries the minus state.
Genuineness is decided exactly for pure states via the Schmidt rank across
every bipartition.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import fock, sim
from .bigraph import SculptingBigraph, is_epm
from .compiler import compile_graph
from .sculpting import (OracleWires, QubitState, apply_sculpting, hadamard_all,
                        no_bunching_check, oracle_wires, to_qubit_state)

SCHMIDT_CUTOFF = 1e-9


def target_state(kind: str, n: int) -> QubitState:
    """Named heralded targets in the diagonal basis.

    ghz: (|+>^n + |->^n)/r2;  w: uniform single |-> excitation;
    type5 (n = 3): the five-term GHZ/W superposition.
    """
    kind = kind.lower()
    if kind == "ghz":
        if n < 2:
            raise ValueError("ghz target needs n >= 2")
        vec = np.zeros(2 ** n, dtype=complex)
        vec[0] = vec[-1] = 1.0 / math.sqrt(2.0)
        return QubitState(vec)
    if kind == "w":
        if n < 2:
            raise ValueError("w target needs n >= 2")
        vec = np.zeros(2 ** n, dtype=complex)
        for k in range(n):
            vec[1 << (n - 1 - k)] = 1.0 / math.sqrt(n)
        return QubitState(vec)
    if kind == "type5":
        if n != 3:
            raise ValueError("the type5 target is defined for n = 3 only")
        vec = np.zeros(8, dtype=complex)
        for idx in (0b000, 0b100, 0b101, 0b110, 0b111):
            vec[idx] = 1.0 / math.sqrt(5.0)
        return QubitState(vec)
    raise ValueError(f"unknown target kind {kind!r}")


def fidelity(a: QubitState, b: QubitState) -> float:
    """|<a|b>|^2; invariant under global phases."""
    if a.amps.size != b.amps.size:
        raise ValueError("qubit state dimensions differ")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def schmidt_rank(q: QubitState, party: tuple[int, ...]) -> int:
    """Rank of the reduced state across the bipartition (party | rest)."""
    n = q.n_qubits
    rest = tuple(k for k in range(n) if k not in party)
    tensor = q.amps.reshape([2] * n)
    mat = np.transpose(tensor, party + rest).reshape(2 ** len(party), 2 ** len(rest))
    svals = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(svals > SCHMIDT_CUTOFF))


def genuine_entanglement(q: QubitState) -> bool:
    """True iff every nontrivial bipartition has Schmidt rank > 1."""
    n = q.n_qubits
    if n < 2:
        return False
    for size in range(1, n // 2 + 1):
        for party in itertools.combinations(range(n), size):
            if size == n - size and 0 not in party:
                continue  # complements are equivalent cuts
            if schmidt_rank(q, party) < 2:
                return False
    return True


# ---------------------------------------------------------------------------
# End-to-end scheme verification
# ---------------------------------------------------------------------------

@dataclass
class SchemeReport:
    kind: str
    n: int
    epm: bool
    no_bunching: bool
    oracle_target_fidelity: float
    p_with_ff: float
    p_without_ff: float
    n_outcomes: int
    n_correctable: int
    min_corrected_fidelity: float
    genuine: bool
    runtime_s: float

    def lines(self) -> list[str]:
        fr_ff = fock.rationalize(self.p_with_ff) or f"{self.p_with_ff:.3e}"
        fr_no = fock.rationalize(self.p_without_ff) or f"{self.p_without_ff:.3e}"
        return [
            f"scheme = {self.kind} (n={self.n})",
            f"epm = {self.epm}",
            f"no_bunching = {self.no_bunching}",
            f"oracle_fidelity = {self.oracle_target_fidelity:.12f}",
            f"P_ff = {fr_ff} ({self.p_with_ff:.10g})",
            f"P_no_ff = {fr_no} ({self.p_without_ff:.10g})",
            f"outcomes = {self.n_correctable}/{self.n_outcomes} correctable, "
            f"min corrected fidelity {self.min_corrected_fidelity:.12f}",
            f"genuine_entanglement = {self.genuine}",
            f"runtime = {self.runtime_s:.3f}s",
        ]

    def passes(self, atol: float) -> bool:
        """The scheme's verdict: an EPM graph with no bunching whose oracle
        state is genuinely entangled and is the target, and at least one
        outcome corrected onto it, every one within ``atol``."""
        return (self.epm and self.no_bunching and self.genuine
                and self.oracle_target_fidelity >= 1.0 - atol
                and self.n_correctable > 0
                and self.min_corrected_fidelity >= 1.0 - atol)


def _read_qubits(g: SculptingBigraph, state: fock.FockState,
                 table: OracleWires) -> QubitState:
    """Qubit reading of an oracle state on the main circles' wires, whose
    levels 0/1 are the computational basis."""
    rails = [(table[(label, 0)], table[(label, 1)]) for label in g.main_labels()]
    return QubitState(hadamard_all(to_qubit_state(state, rails).amps))


def oracle_qubit_state(g: SculptingBigraph) -> QubitState:
    """Qubit reading of the sculpting oracle's final state."""
    table = oracle_wires(g)
    return _read_qubits(g, apply_sculpting(g, table=table), table)


def verify_scheme(g: SculptingBigraph, kind: str, n: int,
                  atol: float = fock.ATOL) -> SchemeReport:
    """Full pipeline check: oracle, compile, simulate, classify, probe."""
    t0 = time.perf_counter()
    epm = is_epm(g)
    table = oracle_wires(g)
    final = apply_sculpting(g, table=table)
    nb = no_bunching_check(final, g, table=table)
    circuit = compile_graph(g)  # a non-EPM graph raises here
    oracle_q = _read_qubits(g, final, table)
    target = target_state(kind, n)
    fid_ot = fidelity(oracle_q, target)

    outcomes = sim.run_heralded(circuit)
    classified = sim.classify_feedforward(outcomes, oracle_q, circuit, atol=atol)
    p_ff = sim.success_probability(classified, "with_ff")
    p_no = sim.success_probability(classified, "without_ff")
    corr = [oc for oc in classified if oc.correction is not None]
    min_fid = min((oc.corrected_fidelity for oc in corr), default=0.0)
    genuine = genuine_entanglement(oracle_q)
    return SchemeReport(kind, n, epm, nb, fid_ot, p_ff, p_no,
                        len(classified), len(corr), min_fid, genuine,
                        time.perf_counter() - t0)
