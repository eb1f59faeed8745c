"""Shared test utilities: creation-polynomial builders over circuit wires,
and the full-propagation reference for heralded outcomes.

A polynomial maps creation monomials (sorted wire tuples, with repetition)
to complex coefficients.  ``poly_state`` realizes a polynomial as the Fock
state obtained by applying the creation operators to vacuum, which is
exactly how the staged reference expressions are written.
"""

from __future__ import annotations

import math
from collections import Counter

from sculpt import fock, sim
from sculpt.fock import FockState

Poly = dict[tuple[int, ...], complex]


def mono(*wires: int, coeff: complex = 1.0) -> Poly:
    return {tuple(sorted(wires)): coeff}


def poly_add(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for m, c in p.items():
            out[m] = out.get(m, 0.0) + c
    return out


def poly_scale(p: Poly, c: complex) -> Poly:
    return {m: c * v for m, v in p.items()}


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(sorted(ma + mb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def poly_prod(polys: list[Poly]) -> Poly:
    out: Poly = {(): 1.0}
    for p in polys:
        out = poly_mul(out, p)
    return out


def sq(terms: list[tuple[int, complex]]) -> Poly:
    """(sum c_i a†_{w_i})^2 as a polynomial."""
    lin = poly_add(*[mono(w, coeff=c) for w, c in terms])
    return poly_mul(lin, lin)


def poly_state(p: Poly) -> FockState:
    """Apply a creation polynomial to vacuum."""
    out = FockState.zero()
    for m, c in p.items():
        term = FockState.vacuum()
        for w in m:
            term = fock.create(term, w)
        out = fock.add_scaled(out, c, term)
    return out


def counts_state(counts: dict[int, int], amp: complex = 1.0) -> FockState:
    return FockState.from_counts(Counter(counts), amp)


R2 = 1.0 / math.sqrt(2.0)


def reference_outcomes(circuit) -> list[tuple]:
    """Heralded outcomes with no filter moved into the circuit: full
    propagation, then each detector group's count filter on the final
    state.  (pattern, probability, normalized residual) per outcome."""
    final = sim.run(circuit)
    det_wires = sorted(circuit.detector_wires())
    out = []
    for sig, comp in fock.group_by_counts(final, det_wires):
        counts = dict(sig)
        if all(sum(counts.get(w, 0) for w in grp.wires) == grp.required
               for grp in circuit.detector_groups):
            prob = fock.norm2(comp)
            residual = fock.strip_wires(comp, det_wires)
            out.append((sig, prob, fock.scale(residual, 1.0 / math.sqrt(prob))))
    return out


def assert_same_outcomes(outcomes, reference) -> None:
    """Same patterns in the same order, probabilities within fock.ATOL and
    residuals termwise close."""
    assert [oc.pattern for oc in outcomes] == [sig for sig, _, _ in reference]
    for oc, (sig, prob, residual) in zip(outcomes, reference):
        assert abs(oc.probability - prob) <= fock.ATOL, sig
        assert fock.allclose(oc.residual, residual), sig
