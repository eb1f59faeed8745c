"""Exact Fock-space simulation of circuits with heralded post-selection.

The propagated state is held sparsely.  One backward pass over a circuit,
:func:`_plan`, lowers each element through the ``ports`` or ``mapping`` that
:func:`circuit.dual_rail_element` also reads, so in either encoding a wave
plate acts as a balanced beam splitter and a PBS as a swap, and three
operations remain: create (a source), permute (a swap) and mix (a
multiport, a linear substitution on creation operators); propagation is
exact up to floating point.  Permutations touch no term: the pass folds
them into the map from each wire to the circuit wire its photons end on,
and moves every other element onto those wires, so the state, each filter
and the final outcomes are keyed by final circuit wires throughout.  The
same pass places each detector group's count filter as soon as its
subtractor's herald is fixed, so rejected branches are not carried through
the rest of the circuit, and it returns plain integer steps.  The state is
a product of factors, each a sparse state on a disjoint set of wires: a
step or filter first merges, by tensor product, the factors that own its
wires and then acts on that one factor.  One pass over the final state
buckets the terms by their detector-wire occupation signature: each
signature that meets every detector group's required count becomes one
outcome with an exact conditional residual state and probability.

Propagation holds each term as one packed integer key, wire w's count in
its own bit field (see :mod:`packed`, which holds the kernel and says why
no field overflows).  Outcomes unpack their patterns and residuals into
``(wire, count)`` occupations.  :func:`apply_element` is the reference
kernel on ``FockState`` terms; :func:`run_heralded` does not call it.

Feed-forward classification searches for local corrections of the form
X^a * diag(1, e^{i phi}) per output mode (bit flip optional, diagonal phase
solved from the phase equations) that bring a residual to fidelity
>= 1 - atol with the target, the one rule that decides; an outcome is
identity-correct when no correction is needed.  All outcomes of one call are
solved together, from their residuals' nonzero qubit entries: one sorted key
array, one walk over the bit-flip masks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import fock, packed
from .circuit import (HWP, PBS, UHWP, Circuit, DetectorGroup, Multiport, Source, Swap,
                      dual_rail_element, fourier, validate)
from .fock import FockState
from .packed import Packed
from .sculpting import QubitState, qubit_entries, to_qubit_state


# A count filter: the detector group, the wires it counts and their field mask.
Filter = tuple[DetectorGroup, tuple[int, ...], int]


class SimulationError(RuntimeError):
    def __init__(self, message: str, diagnostics: list[str] | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or [message]


def _permutation(el) -> dict[int, int] | None:
    """The wire mapping (src -> dst) of a swap, None for any other lowered
    element.  A mapping that does not permute its own wires raises
    ``ValueError``."""
    if not isinstance(el, Swap):
        return None
    mapping = dict(el.mapping)
    if sorted(mapping) != sorted(mapping.values()):
        raise ValueError(f"{el.kind} mapping is not a permutation of its wires")
    return mapping


def apply_element(state: FockState, el) -> FockState:
    """Apply one element's action, lowered by
    :func:`circuit.dual_rail_element`; unknown elements raise.  A
    permutation is the substitution a†_src -> a†_dst.

    This is the reference kernel, on ``FockState`` terms through
    :func:`fock.substitute`; :func:`run_heralded` does not call it, but
    propagates packed terms with :func:`packed.apply`."""
    el = dual_rail_element(el)
    perm = _permutation(el)
    if perm is not None:
        return fock.substitute(state, {src: ((dst, 1.0),) for src, dst in perm.items()})
    if isinstance(el, Source):
        out = state
        for _ in range(el.photons):
            out = fock.ladder(out, ((el.wire, 1.0),), create=True)
        if el.photons < 2:
            return out
        return fock.scale(out, 1.0 / math.sqrt(math.factorial(el.photons)))
    if isinstance(el, Multiport):
        n = el.n
        u = fourier(n)
        rules: dict[int, tuple] = {}
        arity = len(el.ports[0])
        for slot in range(arity):
            for j in range(n):
                rules[el.ports[j][slot]] = tuple(
                    (el.ports[k][slot], u[k][j]) for k in range(n))
        return fock.substitute(state, rules)
    raise SimulationError(f"unknown element {el!r}")


def _plan(circuit: Circuit) -> tuple[int, list[tuple[packed.Step, list[Filter]]]]:
    """The field width and the steps that propagate ``circuit``, each with
    the count filters to project right after it, from one backward pass.

    Each element is lowered as it is read (see
    :func:`circuit.dual_rail_element`).  ``final`` maps a wire at the current
    point to the circuit wire its photons end on: a permutation updates it
    and is dropped, and every other element becomes a step on the final
    wires that its own wires map to.  Propagating the steps leaves every
    photon where the whole circuit would.

    A group's filter span is the union of the wire components, linked by
    the steps after the current one, that hold its detector wires.  Each
    later step acts wholly inside or wholly outside it, so its photon count
    is conserved to the end unless a later source adds to it.  The span is
    usable while it meets no output wire, no later source's wire and no
    other group's detector wire; it only grows, and only when a step meets
    it, so once unusable it stays so.  Each group is filtered right after
    the earliest step at which its span is usable.
    """
    groups = circuit.detector_groups
    width = packed.field_width(sum(el.photons for el in circuit.elements
                                   if isinstance(el, Source)))
    detectors = circuit.detector_wires()
    barrier = set(circuit.outputs)
    spans = {g: set(grp.wires) for g, grp in enumerate(groups)}  # not yet placed
    placed: dict[int, tuple[int, set[int]]] = {}  # group -> (steps from the end, span)
    linked: dict[int, set[int]] = {}
    final: dict[int, int] = {}
    steps: list[packed.Step] = []
    for el in reversed(circuit.elements):
        if isinstance(el, (Swap, PBS)):
            final.update({src: final.get(dst, dst) for src, dst in el.mapping})
            continue
        if isinstance(el, Source):
            wires, n, k = (final.get(el.wire, el.wire),), 0, el.photons
        elif isinstance(el, (Multiport, HWP, UHWP)):
            ports = el.ports
            wires = tuple([final.get(w, w) for grp in ports for w in grp])
            n, k = len(ports), len(ports[0])
        else:
            raise SimulationError(f"unknown element {el!r}")
        steps.append(packed.step(wires, n, k, width))
        if not spans:
            continue
        for g, span in spans.items():
            placed[g] = (len(steps), span)
        if not n:
            barrier.add(wires[0])
        joined = set(wires).union(*[linked.get(w, ()) for w in wires])
        for w in joined:
            linked[w] = joined
        for g, span in list(spans.items()):
            if span.isdisjoint(wires):
                continue
            if barrier.isdisjoint(joined) and joined & detectors <= set(groups[g].wires):
                spans[g] = span | joined
            else:
                del spans[g]
    steps.reverse()
    filters: list[list[Filter]] = [[] for _ in steps]
    for g, (i, span) in placed.items():
        span = tuple(sorted(span))
        filters[len(steps) - i].append((groups[g], span, packed.field_mask(span, width)))
    return width, list(zip(steps, filters))


def _joined(owner: dict[int, list], wires: Sequence[int]) -> list:
    """The factor, a ``[terms, wires]`` pair in ``owner``, that holds all of
    ``wires``: the one that already does, or else the tensor product of the
    factors that hold any of them, which also takes the ones no factor
    holds, in vacuum."""
    parts = {id(f): f for f in map(owner.get, wires)}
    if len(parts) == 1:
        factor, = parts.values()
        if factor is not None:
            return factor
    parts.pop(id(None), None)
    terms, held = None, set(wires)
    for part, part_wires in parts.values():
        terms = part if terms is None else packed.tensor(terms, part)
        held |= part_wires
    factor = [{0: 1 + 0j} if terms is None else terms, held]
    owner.update(dict.fromkeys(held, factor))
    return factor


# ---------------------------------------------------------------------------
# Heralded outcomes
# ---------------------------------------------------------------------------

@dataclass
class HeraldOutcome:
    """One detector pattern with its conditional residual state."""

    pattern: tuple[tuple[int, int], ...]   # (wire, count), detected wires only
    probability: float
    residual: FockState                    # normalized, on output wires
    correction: tuple[str, ...] | None = None
    corrected_fidelity: float | None = None
    identity: bool = False


def run_heralded(circuit: Circuit) -> list[HeraldOutcome]:
    """Enumerate every detector signature meeting all group requirements.
    A circuit that :func:`circuit.validate` faults raises
    :class:`SimulationError`.

    Outcome probabilities sum to the scheme's total heralding probability.
    Signatures violating any group's required count are dropped; a detector
    budget exceeding the photon supply therefore yields an empty list.

    The circuit is propagated as the steps :func:`_plan` lowers it to, each
    through :func:`packed.apply`.  Each group's required-count filter is
    projected with :func:`packed.project` where the plan proves it commutes
    with the rest of the circuit; this only prunes terms that the final
    filter would reject.  The state is held as a product of factors of
    packed terms (see the module docstring) until the last step, after
    which all factors are merged.
    """
    diags = validate(circuit)
    if diags:
        raise SimulationError("invalid circuit: " + "; ".join(diags), diags)
    width, plan = _plan(circuit)
    # owner[w] is the factor, a [terms, wires] pair, that holds wire w;
    # factors hold disjoint wires, and a wire no factor holds is in vacuum.
    owner: dict[int, list] = {}
    for step, filters in plan:
        factor = _joined(owner, step.wires)
        factor[0] = packed.apply(factor[0], step, width)
        for grp, span, mask in filters:
            factor = _joined(owner, span)
            factor[0] = packed.project(factor[0], mask, grp.required, width)
            if not factor[0]:
                return []
    return _heralded_outcomes(_joined(owner, list(owner))[0], circuit, width)


def _heralded_outcomes(terms: Packed, circuit: Circuit, width: int) -> list[HeraldOutcome]:
    """Sort the final packed terms into heralded outcomes in one pass.

    A term is bucketed by its detector signature ``key & det_mask`` and
    keyed by the rest of its fields; the two together give back the key, so
    no two terms of a bucket collide.  A signature is accepted when every
    group's detector count equals its required count.  The filters placed
    during propagation do not make this check redundant: each fixes the
    count on its whole span, which may hold wires that are neither detectors
    nor outputs.  A photon on such a wire raises only in an accepted
    signature.  Each distinct signature and residual key is unpacked into
    (wire, count) pairs once.
    """
    det_mask = packed.field_mask(circuit.detector_wires(), width)
    buckets: dict[int, Packed] = defaultdict(dict)
    for key, amp in terms.items():
        sig = key & det_mask
        buckets[sig][key ^ sig] = amp
    patterns = {sig: packed.unpack(sig, width) for sig in buckets}
    group_of = {w: g for g, grp in enumerate(circuit.detector_groups) for w in grp.wires}
    required = [grp.required for grp in circuit.detector_groups]
    off_outputs = ~packed.field_mask(circuit.outputs, width)
    occupations: dict[int, fock.Occupation] = {}
    outcomes: list[HeraldOutcome] = []
    for sig in sorted(buckets, key=patterns.__getitem__):
        counts = [0] * len(required)
        for w, n in patterns[sig]:
            counts[group_of[w]] += n
        if counts != required:
            continue
        bucket = buckets[sig]
        stray = functools.reduce(operator.or_, bucket) & off_outputs
        if stray:
            wires = [w for w, _ in packed.unpack(stray, width)]
            raise SimulationError(f"herald left photons on non-output wires {wires}")
        for rest in bucket.keys() - occupations.keys():
            occupations[rest] = packed.unpack(rest, width)
        prob = sum(abs(amp) ** 2 for amp in bucket.values())
        # scaled up, as prob <= 1, so every amplitude stays above DROP_TOL
        scale = 1.0 / math.sqrt(prob)
        residual = {occupations[rest]: amp * scale for rest, amp in bucket.items()}
        outcomes.append(HeraldOutcome(patterns[sig], prob, FockState._adopt(residual)))
    return outcomes


def _output_rails(circuit: Circuit) -> list[tuple[int, int]]:
    """(rail 0, rail 1) wires of each output mode: polarization H/V or
    rails 0/1, which encode the diagonal +/- pair that QubitState reads."""
    rails = []
    for mode in circuit.output_modes:
        pair = circuit.mode_wires(mode)
        key0, key1 = ("H", "V") if "H" in pair else ("0", "1")
        rails.append((pair[key0], pair[key1]))
    return rails


def residual_qubits(outcome: HeraldOutcome, circuit: Circuit) -> QubitState:
    """Read an outcome's residual into qubit amplitudes."""
    return to_qubit_state(outcome.residual, _output_rails(circuit))


# ---------------------------------------------------------------------------
# Feed-forward classification
# ---------------------------------------------------------------------------

def _wrap(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _phase_solutions(rows: list[np.ndarray], angles: np.ndarray, n: int):
    """Solutions x of sum_k rows[i][k] x_k = angles[i] (mod 2pi), free vars 0,
    for a batch of right-hand sides at once: ``angles[i]`` holds equation
    i's angle for each of R systems.

    Integer coefficient matrix, shared by the batch, so every pivot and
    branch choice depends on ``rows`` alone: eliminates with unit pivots,
    branches on single-variable rows with larger coefficients, rejects
    anything else.  Yields one (R, n) array x per branch choice.  An
    equation that elimination empties is not checked: x meets the pivot
    equations exactly, and the fidelity test judges the rest.
    """
    angles = np.asarray(angles, dtype=float)
    eqs = [(r.astype(float).copy(), a) for r, a in zip(rows, angles)]
    pivots: list[tuple[int, np.ndarray, np.ndarray]] = []
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

    branch_vars: list[tuple[int, int, np.ndarray]] = []
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

    for choices in itertools.product(*(range(d) for _, d, _ in branch_vars)):
        x = np.zeros((angles.shape[1], n))
        for (k, d, base), c in zip(branch_vars, choices):
            x[:, k] = base + 2.0 * math.pi * c / d
        for k, r, a in reversed(pivots):
            x[:, k] = a - (x @ r - r[k] * x[:, k])
        yield x


def _corrections(target: QubitState, keys: np.ndarray, amps: np.ndarray, n_rows: int,
                 atol: float) -> list[tuple[tuple[str, ...], float] | None]:
    """Corrections for a batch of residuals, read as their entries: the
    sorted keys ``row << n | index`` and the amplitudes there (see
    :func:`sculpting.qubit_entries`).

    Walks the bit-flip masks once, in increasing order, testing every
    pending row at each; a row takes the first mask and the first phase
    solution there whose fidelity F = |t . corrected|^2 is >= 1 - atol.
    That test alone decides.  A correction permutes entries and changes
    their phases only, so for unit vectors t and corrected c,
    1 - F >= 1 - sum |t_b||c_b| = 1/2 || |t| - |c| ||^2; a mask is tried on
    a row only when each of its entries at the support indices
    ``supp ^ mask`` lies within sqrt(2 atol) of the target's magnitude
    there.  Only those entries are looked up, a missing key reading as 0,
    which gives F exactly: t is nil off its support.  F is reported clamped
    to 1 against rounding.

    The phase equations come from the support entries above 1e-7 alone.
    Their pivot solution meets the pivot equations exactly; a row it leaves
    below 1 - atol takes one weighted least-squares step in the global phase
    and x, over the phase misses at those entries (weight |t_b|, wrapped
    from the first entry's miss), and is tested again.
    """
    n = target.n_qubits
    t = target.amps
    supp = np.flatnonzero(np.abs(t) > 1e-10)
    t_supp = t[supp]
    abs_t_supp = np.abs(t_supp)
    bits = ((supp[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(int)
    strong = np.flatnonzero(abs_t_supp > 1e-7)
    eq_rows = list(bits[strong[1:]] - bits[strong[0]])
    weight = abs_t_supp[strong, None]
    design = weight * np.hstack([np.ones((strong.size, 1)), bits[strong]])
    row_of = keys >> n
    norms = np.sqrt(np.bincount(row_of, weights=(amps.conj() * amps).real, minlength=n_rows))
    if not norms.all():
        raise ValueError("zero state has no qubit reading")
    amps = amps / norms[row_of]
    near = math.sqrt(2.0 * atol)

    def fidelity(x, entries):
        return np.abs(np.vecdot(t_supp, np.exp(1j * (x @ bits.T)) * entries)) ** 2

    found: list[tuple[tuple[str, ...], float] | None] = [None] * n_rows
    pending = np.arange(n_rows)
    for a_mask in range(2 ** n):
        if not pending.size:
            break
        want = pending[:, None] << n | (supp ^ a_mask)
        at = keys.searchsorted(want).clip(max=keys.size - 1)
        on_supp = np.where(keys[at] == want, amps[at], 0)
        cand = np.flatnonzero(np.all(np.abs(np.abs(on_supp) - abs_t_supp) <= near, axis=1))
        if not cand.size:
            continue
        perm = on_supp[cand]
        q = np.angle(t_supp[strong] * perm[:, strong].conj())
        hit = np.zeros(cand.size, dtype=bool)
        for x in _phase_solutions(eq_rows, _wrap(q[:, 1:] - q[:, :1]).T, n):
            live = np.flatnonzero(~hit)
            if not live.size:
                break
            x = x[live]
            fid = fidelity(x, perm[live])
            miss = np.flatnonzero(fid < 1.0 - atol)
            if miss.size:
                off = q[live[miss]] - x[miss] @ bits[strong].T
                rhs = weight * _wrap(off - off[:, :1]).T
                x[miss] += np.linalg.lstsq(design, rhs, rcond=None)[0][1:].T
                fid[miss] = fidelity(x[miss], perm[live[miss]])
            good = fid >= 1.0 - atol
            rows = live[good]
            for row, labels, f in zip(pending[cand[rows]], _labels(a_mask, x[good]), fid[good]):
                found[row] = (labels, min(float(f), 1.0))
            hit[rows] = True
        pending = np.delete(pending, cand[hit])
    return found


def _phase_label(phi: float) -> str:
    """The diagonal phase e^{i phi}, phi in [-pi, pi): "" for none, Z, or
    m/d pi for the smallest d <= 12 that lies within 1e-7 (so m/d is
    reduced), else P(phi) in radians."""
    ratio = phi / math.pi
    for d in range(1, 13):
        m = round(ratio * d)
        if abs(phi - m / d * math.pi) <= 1e-7:
            return ("Z" if m else "") if d == 1 else f"P({m}/{d}pi)"
    return f"P({phi:.6f})"


def _labels(a_mask: int, x: np.ndarray) -> list[tuple[str, ...]]:
    """Per-mode labels of the correction (a_mask, x) for each row of x;
    each distinct phase is labelled once."""
    n = x.shape[1]
    phis, which = np.unique(_wrap(x), return_inverse=True)
    phases = [_phase_label(phi) for phi in phis.tolist()]
    flips = ["X" if (a_mask >> (n - 1 - k)) & 1 else "" for k in range(n)]
    return [tuple(flip + phases[i] or "I" for flip, i in zip(flips, row))
            for row in which.reshape(x.shape).tolist()]


def classify_feedforward(outcomes: Sequence[HeraldOutcome], target: QubitState,
                         circuit: Circuit, atol: float = fock.ATOL) -> list[HeraldOutcome]:
    """Populate correction labels on a copy of each outcome.

    Outcomes split into identity-correct (no correction needed, up to global
    phase), correctable (a local correction reaches fidelity >= 1 - atol
    with the target), and failed (correction is None).  An ``atol`` below
    ``fock.DROP_TOL``, the amplitude the simulation drops, raises
    ``ValueError``: rounding would decide there.
    """
    if not atol >= fock.DROP_TOL:
        raise ValueError(f"atol {atol} is below the drop tolerance {fock.DROP_TOL:g}")
    rails = _output_rails(circuit)
    if len(rails) != target.n_qubits:
        raise ValueError("qubit counts differ")
    keys, amps = qubit_entries([oc.residual for oc in outcomes], rails)
    out = []
    for oc, sol in zip(outcomes, _corrections(target, keys, amps, len(outcomes), atol)):
        labels, fid = sol or (None, None)
        out.append(HeraldOutcome(oc.pattern, oc.probability, oc.residual, labels, fid,
                                 labels is not None and all(l == "I" for l in labels)))
    return out


def success_probability(outcomes: Iterable[HeraldOutcome],
                        mode: str = "with_ff") -> float:
    """Total probability of accepted outcomes.

    ``with_ff`` sums every correctable outcome (identity included);
    ``without_ff`` sums only identity-correct outcomes."""
    if mode == "with_ff":
        return sum(oc.probability for oc in outcomes if oc.correction is not None)
    if mode == "without_ff":
        return sum(oc.probability for oc in outcomes if oc.identity)
    raise ValueError(f"unknown mode {mode!r}")
