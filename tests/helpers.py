"""Shared test utilities: creation-polynomial builders over circuit wires,
the full-propagation reference for heralded outcomes, the naive references
for ``fock.ladder``, ``fock.substitute``, ``sculpting.hadamard_all`` and the
feed-forward solver, the wire relabeling the references propagate
permutations with, the element-by-element references for the propagation
plan's folding and filter placement, the scan-based references for a
graph's views, and small builders and readers of states and circuits.

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

from sculpt import fock, packed, sim
from sculpt.bigraph import Circle, CircleKind
from sculpt.circuit import Multiport, Source, dual_rail_element
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
    ``sim.apply_element`` on a PBS or swap."""
    out: dict = {}
    for occ, amp in state.terms():
        counts = {mapping.get(w, w): n for w, n in occ}
        out[tuple(sorted(counts.items()))] = amp
    return FockState(out)


def apply(state: FockState, el) -> FockState:
    """``sim.apply_element``, except that a permutation, a PBS included,
    re-keys the terms through :func:`naive_relabel` instead of the
    production substitution."""
    el = dual_rail_element(el)
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
    Yields candidate x vectors (possibly none); an equation that elimination
    empties is left to the fidelity test.
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
    formatter above.  A mask is tried when every support magnitude lies
    within sqrt(2 atol) of the target's; the fidelity >= 1 - atol alone
    decides, after one least-squares phase step for a solution that
    misses."""
    t = target.amps
    r = residual.amps
    if r.size != t.size:
        raise ValueError("qubit counts differ")
    n = target.n_qubits
    index = np.arange(t.size)
    supp = np.flatnonzero(np.abs(t) > 1e-10)
    all_bits = ((index[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(int)
    # phase equations only where |t| is above 1e-7
    strong = np.flatnonzero(np.abs(t) > 1e-7)
    rows = list(all_bits[strong[1:]] - all_bits[strong[0]])
    w = np.abs(t[strong])
    design = w[:, None] * np.hstack([np.ones((strong.size, 1)), all_bits[strong]])

    def fidelity(x, perm):
        corrected = np.exp(1j * (all_bits @ x)) * perm
        return abs(np.vdot(t, corrected)) ** 2 / float(np.vdot(corrected, corrected).real)

    for a_mask in range(2 ** n):
        perm = r[index ^ a_mask]
        if np.any(np.abs(np.abs(perm[supp]) - np.abs(t[supp])) > math.sqrt(2 * atol)):
            continue
        q = np.angle(t[strong] * perm[strong].conj())
        for x in naive_phase_solutions(rows, sim._wrap(q[1:] - q[0]), n):
            fid = fidelity(x, perm)
            if fid < 1.0 - atol:
                off = q - all_bits[strong] @ x
                step = np.linalg.lstsq(design, w * sim._wrap(off - off[0]), rcond=None)[0]
                x = x + step[1:]
                fid = fidelity(x, perm)
            if fid >= 1.0 - atol:
                return naive_labels(a_mask, x, n), float(fid)
    return None


# ---------------------------------------------------------------------------
# References for sim._plan
# ---------------------------------------------------------------------------

def _moved(el, to: dict[int, int]):
    """A lowered source or multiport moved onto the wires ``to`` maps its
    wires to (a wire not in ``to`` stays)."""
    if isinstance(el, Source):
        return Source(to.get(el.wire, el.wire), el.photons, el.stage)
    if isinstance(el, Multiport):
        return Multiport(tuple(tuple(to.get(w, w) for w in grp) for grp in el.ports),
                         el.stage)
    raise sim.SimulationError(f"unknown element {el!r}")


def on_final_wires(circuit) -> list:
    """The circuit's elements lowered by :func:`circuit.dual_rail_element`,
    in order, with the permutations dropped and every other element moved
    onto the circuit wires that the permutations after it carry its wires
    to.

    Walking backward, ``final`` maps a wire at the current point to the
    circuit wire its photons end on; a permutation src -> dst updates it and
    is dropped."""
    final: dict[int, int] = {}
    folded = []
    for el in map(dual_rail_element, reversed(circuit.elements)):
        perm = sim._permutation(el)
        if perm is None:
            folded.append(_moved(el, final))
        else:
            final.update({src: final.get(dst, dst) for src, dst in perm.items()})
    folded.reverse()
    return folded


def herald_schedule(circuit, elements) -> dict[int, list]:
    """Index into ``elements``, the circuit on its final wires (see
    :func:`on_final_wires`) -> the (detector group, wire set) count filters
    to project right after that element.

    Walking the elements backward, a group's filter set is the union of the
    wire components, linked by the elements after the current one, that hold
    its detector wires.  The set is usable while it meets no output wire, no
    later source's wire and no other group's detector wire.  Each group is
    filtered at its earliest usable index; every set is built afresh at
    every index."""
    barrier = set(circuit.outputs)
    detectors = circuit.detector_wires()
    linked: dict[int, set[int]] = {}
    pending = list(circuit.detector_groups)
    earliest: dict = {}
    for i in range(len(elements) - 1, -1, -1):
        usable = []
        for grp in pending:
            span = set(grp.wires).union(*(linked.get(w, ()) for w in grp.wires))
            if not span & barrier and span & detectors <= set(grp.wires):
                earliest[grp] = (i, span)
                usable.append(grp)
        pending = usable
        if not pending:
            break
        el = elements[i]
        if isinstance(el, Source):
            barrier.add(el.wire)
        wires = el.wires_used()
        joined = set(wires).union(*(linked.get(w, ()) for w in wires))
        for w in joined:
            linked[w] = joined
    schedule: dict[int, list] = {}
    for grp, (i, span) in earliest.items():
        schedule.setdefault(i, []).append((grp, span))
    return schedule


def lowered(x) -> tuple:
    """What a folded element or a ``packed.Step`` does, without its stage:
    ("source", wire, photons) or ("mix", ports)."""
    if isinstance(x, packed.Step):
        if not x.n:
            return ("source", x.wires[0], x.k)
        return ("mix", tuple(x.wires[j * x.k:(j + 1) * x.k] for j in range(x.n)))
    if isinstance(x, Source):
        return ("source", x.wire, x.photons)
    return ("mix", x.ports)


def plan_schedule(plan) -> dict[int, list]:
    """A plan's filters in the form of :func:`herald_schedule`."""
    return {i: [(grp, set(span)) for grp, span, _ in filters]
            for i, (_, filters) in enumerate(plan) if filters}


# ---------------------------------------------------------------------------
# Scan-based references for a graph's views
# ---------------------------------------------------------------------------

def scan_main_labels(g) -> list[str]:
    return [str(j) for j in range(1, g.n_main + 1)]


def scan_circles(g) -> list:
    mains = [Circle(l, CircleKind.MAIN) for l in scan_main_labels(g)]
    ancs = [Circle(l, CircleKind.ANCILLA) for l in g.ancillas]
    return mains + ancs


def scan_dot_ids(g) -> list[int]:
    return sorted({e.dot for e in g.edges})


def scan_edges_of_circle(g, label: str) -> list:
    return [e for e in g.edges if e.mode == label]


def scan_edges_of_dot(g, dot: int) -> list:
    return [e for e in g.edges if e.dot == dot]
