"""Algebraic oracle for sculpting protocols.

Builds the 2N+K boson initial state, applies the graph's subtraction
operators dot by dot, checks the no-bunching condition, and independently
predicts the final state from the graph's perfect matchings.  The oracle
works directly in second-quantized Fock space; it never touches the optical
circuit layer, which is what makes it usable as a cross-check.

Wire convention: every spatial mode gets two wires, one per internal level
(0 and 1), numbered by :func:`oracle_wires`; ancilla photons start on the
level-0 wire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fock
from .bigraph import CircleKind, SculptingBigraph, is_epm, perfect_matchings, subtraction_operators
from .fock import FockState, WireId

# (circle label, internal level) -> wire id
OracleWires = dict[tuple[str, int], WireId]


def oracle_wires(g: SculptingBigraph) -> OracleWires:
    """Wire ids of the oracle: (circle label, level) -> id, two consecutive
    ids per circle in circle order."""
    return {(c.label, level): 2 * i + level
            for i, c in enumerate(g.circles()) for level in (0, 1)}


def initial_state(g: SculptingBigraph, table: OracleWires) -> FockState:
    """Product state of 2n+k bosons: one (0,1) pair per main mode, one
    level-0 boson per ancilla mode."""
    wires = [table[(label, level)] for label in g.main_labels() for level in (0, 1)]
    wires += [table[(a, 0)] for a in g.ancillas]
    state = FockState.vacuum()
    for w in wires:
        state = fock.ladder(state, ((w, 1.0),), create=True)
    return state


def _dot_wire_legs(g: SculptingBigraph, table: OracleWires,
                   dot: int) -> list[tuple[WireId, complex]]:
    legs: list[tuple[WireId, complex]] = []
    for e in g.edges_of_dot(dot):
        c0, c1 = e.state.annihilation_coeffs()
        legs.append((table[(e.mode, 0)], e.amplitude * c0))
        legs.append((table[(e.mode, 1)], e.amplitude * c1))
    return legs


def apply_sculpting(g: SculptingBigraph, table: OracleWires | None = None) -> FockState:
    """Apply every dot's subtraction operator, in dot id order, to the
    initial state and return the unnormalized final state.

    Works on arbitrary (including non-EPM) graphs.
    """
    if table is None:
        table = oracle_wires(g)
    subtraction_operators(g)  # normalization check
    state = initial_state(g, table)
    for dot in g.dot_ids():
        state = fock.ladder(state, _dot_wire_legs(g, table, dot))
    return state


def no_bunching_check(state: FockState, g: SculptingBigraph,
                      table: OracleWires | None = None) -> bool:
    """True iff every term keeps exactly one boson per main mode (summed over
    internal levels) and none in ancilla modes.  Vacuously true for zero."""
    if table is None:
        table = oracle_wires(g)
    for occ, _ in state.terms():
        counts = dict(occ)
        for label in g.main_labels():
            if counts.get(table[(label, 0)], 0) + counts.get(table[(label, 1)], 0) != 1:
                return False
        for a in g.ancillas:
            if counts.get(table[(a, 0)], 0) or counts.get(table[(a, 1)], 0):
                return False
    return True


def pm_predict(g: SculptingBigraph, table: OracleWires | None = None) -> FockState:
    """Final state predicted from the perfect matchings alone.

    Each matching contributes one product term: a main-mode edge with
    internal state psi leaves behind the flipped-conjugate single boson
    (a_psi acting on the mode's (0,1) pair), an ancilla edge contributes the
    scalar overlap with the ancilla's level-0 boson.  Requires an EPM graph;
    an empty matching list yields the zero state.
    """
    if not is_epm(g):
        raise ValueError("pm_predict requires an EPM graph")
    if table is None:
        table = oracle_wires(g)
    kinds = {c.label: c.kind for c in g.circles()}
    result: dict[fock.Occupation, complex] = {}
    for pm in perfect_matchings(g):
        term = FockState.vacuum()
        scalar = 1.0 + 0.0j
        for idx in pm:
            e = g.edges[idx]
            if kinds[e.mode] is CircleKind.MAIN:
                # a_psi a0† a1†|vac> = conj(alpha) a1† + conj(beta) a0†
                conj_a, conj_b = e.state.annihilation_coeffs()
                term = fock.ladder(term, ((table[(e.mode, 0)], e.amplitude * conj_b),
                                          (table[(e.mode, 1)], e.amplitude * conj_a)),
                                   create=True)
            else:
                # a_psi on a single level-0 boson leaves conj(alpha) |vac>
                scalar *= e.amplitude * complex(e.state.alpha).conjugate()
        for occ, amp in term.terms():
            result[occ] = result.get(occ, 0.0) + scalar * amp
    return FockState(result)


# ---------------------------------------------------------------------------
# Qubit extraction
# ---------------------------------------------------------------------------

@dataclass
class QubitState:
    """Dense 2^n amplitude vector in the per-mode diagonal basis: bit 1 of
    an index means that mode carries the minus state; mode 0 is the most
    significant bit."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        self.amps = np.asarray(self.amps, dtype=complex)
        n = self.amps.size
        if n == 0 or n & (n - 1):
            raise ValueError("amplitude vector length must be a power of two")

    @property
    def n_qubits(self) -> int:
        return int(self.amps.size).bit_length() - 1

    def normalized(self) -> "QubitState":
        nrm = float(np.linalg.norm(self.amps))
        if nrm == 0:
            raise ValueError("cannot normalize the zero vector")
        return QubitState(self.amps / nrm)


def hadamard_all(vec: np.ndarray) -> np.ndarray:
    """Apply the per-qubit Hadamard butterfly to a 2^n vector, or to each
    row of a stack of them."""
    out = np.array(vec, dtype=complex)
    n = out.shape[-1]
    r = 1.0 / math.sqrt(2.0)
    h = 1
    while h < n:
        pairs = out.reshape(-1, n // (2 * h), 2, h)
        x, y = pairs[:, :, 0], pairs[:, :, 1]
        pairs[:, :, 0], pairs[:, :, 1] = (x + y) * r, (x - y) * r
        h *= 2
    return out


def qubit_entries(states: Sequence[FockState],
                  mode_rails: Sequence[tuple[WireId, WireId]]) -> tuple[np.ndarray, np.ndarray]:
    """Read one-boson-per-mode Fock states into their qubit entries in one
    pass over their terms: the sorted int64 keys ``row << n | index`` of
    every term, ``row`` its state's position and ``index`` its 2^n qubit
    index, and the matching unnormalized amplitudes.

    ``mode_rails[j]`` names mode j's two wires (rail 0, rail 1); mode 0 is
    the most significant bit.  Terms with bunched modes, empty modes, or
    photons on other wires raise.
    """
    n = len(mode_rails)
    slot = {w: (n - 1 - j, bit) for j, pair in enumerate(mode_rails)
            for bit, w in enumerate(pair)}
    index_of: dict[fock.Occupation, int] = {}
    keys: list[int] = []
    values: list[complex] = []
    for row, state in enumerate(states):
        for occ, amp in state.terms():
            idx = index_of.get(occ)
            if idx is None:
                idx = modes = photons = 0
                for w, c in occ:
                    if w not in slot:
                        raise ValueError("state has photons outside the qubit rails")
                    shift, bit = slot[w]
                    idx |= bit << shift
                    modes |= 1 << shift
                    photons += c
                # n photons touching all n modes is one photon per mode
                if modes != (1 << n) - 1 or photons != n:
                    raise ValueError("state is not one boson per mode")
                index_of[occ] = idx
            keys.append(row << n | idx)
            values.append(amp)
    # distinct terms of one state are distinct qubit indices, so no key repeats
    keys_arr = np.array(keys, dtype=np.int64)
    order = np.argsort(keys_arr)
    return keys_arr[order], np.array(values, dtype=complex)[order]


def to_qubit_state(state: FockState,
                   mode_rails: Sequence[tuple[WireId, WireId]]) -> QubitState:
    """Read a one-boson-per-mode Fock state into a unit 2^n qubit vector.

    ``mode_rails[j]`` names mode j's two wires (rail 0, rail 1); a photon
    on rail 1 sets mode j's bit.  Circuit outputs carry the plus and minus
    states on their rails, so this is the diagonal-basis reading.  Terms
    with bunched modes, empty modes, or photons on other wires raise, and
    so does the zero state.
    """
    index, values = qubit_entries([state], mode_rails)
    vec = np.zeros(2 ** len(mode_rails), dtype=complex)
    vec[index] = values
    weight = float(np.vdot(vec, vec).real)
    if weight == 0:
        raise ValueError("zero state has no qubit reading")
    return QubitState(vec / math.sqrt(weight))
