"""Shared test utilities: creation-polynomial builders over circuit wires,
the full-propagation reference for heralded outcomes, the naive references
for ``fock.ladder``, ``fock.substitute``, ``sculpting.hadamard_all`` and the
feed-forward solver, the wire relabeling the references propagate
permutations with, and small builders and readers of states and circuits.

A polynomial maps creation monomials (sorted wire tuples, with repetition)
to complex coefficients.  ``poly_state`` realizes a polynomial as the Fock
state obtained by applying the creation operators to vacuum, which is
exactly how the staged reference expressions are written.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

import numpy as np

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
    """Apply a creation polynomial to vacuum.  Distinct monomials give
    distinct basis states, so their terms are collected in one dict."""
    out: dict = {}
    for m, c in p.items():
        term = FockState.vacuum()
        for w in m:
            term = create(term, w)
        (occ, amp), = term.terms()
        out[occ] = c * amp
    return FockState(out)


def add_scaled(a: FockState, c: complex, b: FockState) -> FockState:
    """Termwise a + c*b with dropout of negligible amplitudes."""
    out = dict(a.terms())
    for occ, amp in b.terms():
        out[occ] = out.get(occ, 0.0) + c * amp
    return FockState(out)


def _occ_set(occ, w: int, n: int):
    items = [(wi, ni) for wi, ni in occ if wi != w]
    if n:
        items.append((w, n))
    items.sort()
    return tuple(items)


def create(state: FockState, w: int) -> FockState:
    """Reference for ``fock.ladder`` with one creation leg: a†_w, with the
    sqrt(n+1) factor, one copy of the state per call."""
    out: dict = {}
    for occ, amp in state.terms():
        n = dict(occ).get(w, 0)
        key = _occ_set(occ, w, n + 1)
        out[key] = out.get(key, 0.0) + amp * math.sqrt(n + 1)
    return FockState(out)


def annihilate(state: FockState, w: int) -> FockState:
    """Reference for ``fock.ladder`` with one annihilation leg: a_w, with
    the sqrt(n) factor; terms with no photon at w vanish."""
    out: dict = {}
    for occ, amp in state.terms():
        n = dict(occ).get(w, 0)
        if n == 0:
            continue
        key = _occ_set(occ, w, n - 1)
        out[key] = out.get(key, 0.0) + amp * math.sqrt(n)
    return FockState(out)


def apply_operator(state: FockState, legs, kind=annihilate) -> FockState:
    """Reference for ``fock.ladder``: sum_i c_i op(w_i) as one ``kind`` call
    per leg (op defaults to annihilation).  Negligible amplitudes are
    dropped from the whole sum, not after each leg: legs whose terms are
    each below ``DROP_TOL`` can add up past it."""
    out: dict = {}
    for w, c in legs:
        if abs(c) < fock.DROP_TOL:
            continue
        for occ, amp in kind(state, w).terms():
            out[occ] = out.get(occ, 0.0) + c * amp
    return FockState(out)


def strip_wires(state: FockState, wires) -> FockState:
    """Drop the given wires from every occupation vector (they must carry a
    definite, term-independent photon pattern, e.g. after group_by_counts)."""
    wset = set(wires)
    out: dict = {}
    for occ, amp in state.terms():
        key = tuple((wi, ni) for wi, ni in occ if wi not in wset)
        if key in out:
            raise ValueError("stripped wires were entangled with the rest")
        out[key] = amp
    return FockState(out)


def from_counts(counts: dict[int, int], amp: complex = 1.0) -> FockState:
    """amp times the basis state with ``counts[w]`` photons on wire w."""
    return FockState({tuple(sorted((w, n) for w, n in counts.items() if n)): amp})


def amplitude(state: FockState, counts: dict[int, int]) -> complex:
    """The amplitude of the basis state with ``counts[w]`` photons on wire w."""
    occ = tuple(sorted((w, n) for w, n in counts.items() if n))
    return dict(state.terms()).get(occ, 0j)


R2 = 1.0 / math.sqrt(2.0)


def total_photons(state: FockState) -> set[int]:
    """Set of total photon numbers present across terms."""
    return {sum(n for _, n in occ) for occ, _ in state.terms()} or {0}


def inner(a: FockState, b: FockState) -> complex:
    """<a|b> over the orthonormal occupation basis."""
    kets = dict(b.terms())
    return complex(sum(amp.conjugate() * kets.get(occ, 0.0) for occ, amp in a.terms()))


def count_elements(circuit, kind: str, stage: str | None = None,
                   ports: int | None = None) -> int:
    """Number of elements of a kind, optionally in one stage and with a
    given multiport size."""
    return sum(1 for el in circuit.elements
               if el.kind == kind
               and (stage is None or el.stage == stage)
               and (ports is None or getattr(el, "n", None) == ports))


def _compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples of non-negative ints summing to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def naive_substitute(state: FockState, rules) -> FockState:
    """Reference for ``fock.substitute``: expands every term's creation
    monomial multinomially, with no grouping and no use of ``fock.ladder``.

    ``rules[w] = [(w', c'), ...]`` means a†_w -> sum c' a†_{w'}; wires not in
    ``rules`` are untouched.  The substitution is lifted to multi-photon terms
    multilinearly, with the sqrt(n!) occupation normalization handled here, so
    unitary rules preserve the squared norm exactly.
    """
    out: dict = {}
    for occ, amp in state.terms():
        # Polynomial coefficient of the creation monomial for this term.
        polys: dict = {(): amp}
        for wi, ni in occ:
            polys = {occ_p: a / math.sqrt(math.factorial(ni)) for occ_p, a in polys.items()}
            images = rules.get(wi)
            if images is None:
                images = ((wi, 1.0 + 0.0j),)
            new_polys: dict = {}
            k = len(images)
            for powers in _compositions(ni, k):
                coeff = math.factorial(ni)
                mono: dict[int, int] = {}
                cval = 1.0 + 0.0j
                for (wj, cj), p in zip(images, powers):
                    if p == 0:
                        continue
                    coeff //= math.factorial(p)
                    cval *= cj ** p
                    mono[wj] = mono.get(wj, 0) + p
                if abs(cval) < fock.DROP_TOL:
                    continue
                for occ_p, a in polys.items():
                    merged = dict(occ_p)
                    for wj, p in mono.items():
                        merged[wj] = merged.get(wj, 0) + p
                    key = tuple(sorted(merged.items()))
                    new_polys[key] = new_polys.get(key, 0.0) + a * coeff * cval
            polys = new_polys
        for occ_p, a in polys.items():
            renorm = 1.0
            for _, p in occ_p:
                renorm *= math.sqrt(math.factorial(p))
            out[occ_p] = out.get(occ_p, 0.0) + a * renorm
    return FockState(out)


def naive_relabel(state: FockState, mapping) -> FockState:
    """A wire permutation (``mapping``: src -> dst) applied by re-keying each
    term through a dict of its counts, wire by wire; the reference for
    ``sim.apply_element`` on a PBS, swap or merge."""
    out: dict = {}
    for occ, amp in state.terms():
        counts = {mapping.get(w, w): n for w, n in occ}
        out[tuple(sorted(counts.items()))] = amp
    return FockState(out)


def apply(state: FockState, el) -> FockState:
    """``sim.apply_element``, except that a permutation re-keys the terms
    through :func:`naive_relabel` instead of the production substitution."""
    perm = sim._permutation(el)
    return sim.apply_element(state, el) if perm is None else naive_relabel(state, perm)


def run(circuit) -> FockState:
    """Propagate the sources through every element, with no heralding."""
    state = FockState.vacuum()
    for el in circuit.elements:
        state = apply(state, el)
    return state


def signature_distribution(circuit) -> dict[tuple, float]:
    """Full probability distribution over detector signatures (accepted or
    not); the values sum to one for a normalized source state."""
    final = run(circuit)
    det_wires = sorted(circuit.detector_wires())
    return {sig: fock.norm2(comp)
            for sig, comp in fock.group_by_counts(final, det_wires)}


def reference_outcomes(circuit) -> list[tuple]:
    """Heralded outcomes with no filter moved into the circuit: full
    propagation, then each detector group's count filter on the final
    state.  (pattern, probability, normalized residual) per outcome."""
    final = run(circuit)
    det_wires = sorted(circuit.detector_wires())
    out = []
    for sig, comp in fock.group_by_counts(final, det_wires):
        counts = dict(sig)
        if all(sum(counts.get(w, 0) for w in grp.wires) == grp.required
               for grp in circuit.detector_groups):
            prob = fock.norm2(comp)
            residual = strip_wires(comp, det_wires)
            out.append((sig, prob, fock.scale(residual, 1.0 / math.sqrt(prob))))
    return out


def assert_same_outcomes(outcomes, reference) -> None:
    """Same patterns in the same order, probabilities within fock.ATOL and
    residuals termwise close."""
    assert [oc.pattern for oc in outcomes] == [sig for sig, _, _ in reference]
    for oc, (sig, prob, residual) in zip(outcomes, reference):
        assert abs(oc.probability - prob) <= fock.ATOL, sig
        assert fock.allclose(oc.residual, residual), sig


def naive_hadamard_all(vec) -> np.ndarray:
    """Reference for ``sculpting.hadamard_all``: the per-qubit butterfly on
    one 2^n vector, pair by pair."""
    out = np.asarray(vec, dtype=complex).copy()
    n = out.size
    h = 1
    r = 1.0 / math.sqrt(2.0)
    while h < n:
        for i in range(0, n, h * 2):
            for j in range(i, i + h):
                x, y = out[j], out[j + h]
                out[j], out[j + h] = (x + y) * r, (x - y) * r
        h *= 2
    return out


def naive_phase_solutions(rows: list[np.ndarray], angles: list[float], n: int):
    """Reference for ``sim._phase_solutions``, one right-hand side at a time:
    solutions x of sum_k rows[i][k] x_k = angles[i] (mod 2pi), free vars 0.

    Integer coefficient matrix; eliminates with unit pivots, branches on
    single-variable rows with larger coefficients, rejects anything else.
    Yields candidate x vectors (possibly none).
    """
    eqs = [(r.astype(float).copy(), float(a)) for r, a in zip(rows, angles)]
    pivots: list[tuple[int, np.ndarray, float]] = []
    while True:
        pick = None
        for i, (r, a) in enumerate(eqs):
            units = np.where(np.abs(np.abs(r) - 1.0) < 1e-9)[0]
            if units.size:
                pick = (i, int(units[0]))
                break
        if pick is None:
            break
        i, k = pick
        r, a = eqs.pop(i)
        if r[k] < 0:
            r, a = -r, -a
        pivots.append((k, r, a))
        for j, (rj, aj) in enumerate(eqs):
            m = rj[k]
            if m:
                eqs[j] = (rj - m * r, aj - m * a)

    branch_vars: list[tuple[int, int, float]] = []
    for r, a in eqs:
        nz = np.where(np.abs(r) > 1e-9)[0]
        if nz.size == 0:
            if abs(sim._wrap(a)) > sim._ANGLE_TOL:
                return
            continue
        if nz.size == 1:
            d = int(round(abs(r[nz[0]])))
            if d == 0 or abs(r[nz[0]] - round(r[nz[0]])) > 1e-9 or d > 6:
                return
            branch_vars.append((int(nz[0]), d, a / r[nz[0]]))
        else:
            return

    def assemble(choices: list[int]):
        x = np.zeros(n)
        for (k, d, base), c in zip(branch_vars, choices):
            x[k] = base + 2.0 * math.pi * c / d
        for k, r, a in reversed(pivots):
            x[k] = a - (float(r @ x) - r[k] * x[k])
        return x

    def rec(i: int, choices: list[int]):
        if i == len(branch_vars):
            yield assemble(choices)
            return
        for c in range(branch_vars[i][1]):
            yield from rec(i + 1, choices + [c])

    yield from rec(0, [])


def naive_labels(a_mask: int, x: np.ndarray, n: int) -> tuple[str, ...]:
    """Reference for ``sim._labels``, one correction at a time."""
    out = []
    for k in range(n):
        flip = (a_mask >> (n - 1 - k)) & 1
        phi = sim._wrap(float(x[k]))
        if abs(phi) <= 1e-7:
            p = ""
        elif abs(abs(phi) - math.pi) <= 1e-7:
            p = "Z"
        else:
            # The smallest denominator d <= 12 that fits is the reduced one.
            ratio = phi / math.pi
            frac = next((Fraction(round(ratio * d), d) for d in range(1, 13)
                         if abs(phi - round(ratio * d) / d * math.pi) <= 1e-7), None)
            if frac is not None:
                p = f"P({frac}pi)" if frac != 1 else "Z"
            else:
                p = f"P({phi:.6f})"
        f = "X" if flip else ""
        label = (f + p) or "I"
        out.append(label)
    return tuple(out)


def naive_solve_correction(residual, target, atol: float = 1e-9):
    """Reference for ``sim.classify_feedforward``: one residual at a time,
    one bit-flip mask at a time, with the scalar phase solver and label
    formatter above."""
    t = target.normalized().amps
    r = residual.normalized().amps
    if r.size != t.size:
        raise ValueError("qubit counts differ")
    n = target.n_qubits
    index = np.arange(t.size)
    supp = np.flatnonzero(np.abs(t) > 1e-10)
    off_supp = np.flatnonzero(np.abs(t) <= 1e-10)
    all_bits = ((index[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(int)
    # phase equations only where |t| is above the 1e-7 fit tolerance, so
    # that every fitting residual is nonzero there
    strong = np.flatnonzero(np.abs(t) > 1e-7)
    rows = list(all_bits[strong[1:]] - all_bits[strong[0]])
    for a_mask in range(2 ** n):
        perm = r[index ^ a_mask]
        if np.any(np.abs(np.abs(perm[supp]) - np.abs(t[supp])) > 1e-7):
            continue
        if np.any(np.abs(perm[off_supp]) > 1e-7):
            continue
        q = np.angle(t[strong] / perm[strong])
        for x in naive_phase_solutions(rows, sim._wrap(q[1:] - q[0]), n):
            corrected = np.exp(1j * (all_bits @ x)) * perm
            fid = abs(np.vdot(t, corrected)) ** 2 / float(np.vdot(corrected, corrected).real)
            if fid >= 1.0 - atol:
                return naive_labels(a_mask, x, n), float(fid)
    return None
