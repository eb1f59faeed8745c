"""Exact Fock-space simulation of circuits with heralded post-selection.

The propagated state is held sparsely; every element is either a wire
permutation or a linear substitution on creation operators, so propagation
is exact up to floating point.  Permutations touch no term: one backward
pass drops them and moves every other element onto the circuit wires that
the permutations after it carry its wires to, so the state, each filter and
the final outcomes are keyed by final circuit wires throughout.  The state
is a product of factors, each a sparse state on a disjoint set of wires: a
source, wave plate or multiport first merges, by tensor product, the
factors that own its wires and then acts on that one factor.  One pass over
the final state buckets the terms by their detector-wire occupation
signature: each signature that meets every detector group's required count
becomes one outcome with an exact conditional residual state and
probability.  Each group's count filter is projected, on the factor that
holds its wires, as soon as its subtractor's herald is fixed, so rejected
branches are not carried through the rest of the circuit.

Feed-forward classification searches for local corrections of the form
X^a * diag(1, e^{i phi}) per output mode (bit flip optional, diagonal phase
solved exactly) that map a residual onto the target; an outcome is
identity-correct when no correction is needed.  All outcomes of one call are
solved together, from their residuals' nonzero qubit entries: one sorted key
array, one walk over the bit-flip masks.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import fock
from .circuit import (Circuit, DetectorGroup, HWP, Multiport, PBS,
                      ReturnMerge, Source, Swap, UHWP, validate)
from .fock import FockState
from .sculpting import QubitState, qubit_entries, to_qubit_state

_R2 = 1.0 / math.sqrt(2.0)


class SimulationError(RuntimeError):
    pass


@functools.lru_cache(maxsize=None)
def _fourier(n: int) -> tuple[tuple[complex, ...], ...]:
    return tuple(tuple(cmath.exp(2j * math.pi * j * k / n) / math.sqrt(n)
                       for j in range(n)) for k in range(n))


def _permutation(el) -> dict[int, int] | None:
    """The wire mapping (src -> dst) of a permutation element, None for any
    other element.  A mapping that does not permute its own wires raises
    ``ValueError``."""
    if isinstance(el, PBS):
        return {el.a_v: el.b_v, el.b_v: el.a_v}
    if not isinstance(el, (Swap, ReturnMerge)):
        return None
    mapping = dict(el.mapping)
    if sorted(mapping) != sorted(mapping.values()):
        raise ValueError(f"{el.kind} mapping is not a permutation of its wires")
    return mapping


def apply_element(state: FockState, el) -> FockState:
    """Apply one element's action; unknown elements raise.  A permutation is
    the substitution a†_src -> a†_dst."""
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
    if isinstance(el, HWP):
        rules = {el.h: ((el.h, _R2), (el.v, _R2)),
                 el.v: ((el.h, _R2), (el.v, -_R2))}
        return fock.substitute(state, rules)
    if isinstance(el, UHWP):
        rules = {el.h: ((el.h, -_R2), (el.v, _R2)),
                 el.v: ((el.h, _R2), (el.v, _R2))}
        return fock.substitute(state, rules)
    if isinstance(el, Multiport):
        n = el.n
        u = _fourier(n)
        rules: dict[int, tuple] = {}
        arity = len(el.ports[0])
        for slot in range(arity):
            for j in range(n):
                rules[el.ports[j][slot]] = tuple(
                    (el.ports[k][slot], u[k][j]) for k in range(n))
        return fock.substitute(state, rules)
    raise SimulationError(f"unknown element {el!r}")


def _moved(el, to: dict[int, int]):
    """A non-permutation element moved onto the wires ``to`` maps its wires
    to (a wire not in ``to`` stays)."""
    if isinstance(el, Source):
        return Source(to.get(el.wire, el.wire), el.photons, el.stage)
    if isinstance(el, (HWP, UHWP)):
        return type(el)(el.mode, to.get(el.h, el.h), to.get(el.v, el.v), el.stage)
    if isinstance(el, Multiport):
        return Multiport(tuple(tuple(to.get(w, w) for w in grp) for grp in el.ports),
                         el.stage)
    raise SimulationError(f"unknown element {el!r}")


def _on_final_wires(circuit: Circuit) -> list:
    """The circuit's non-permutation elements, in order, each moved onto the
    circuit wires that the permutations after it carry its wires to.

    Walking backward, ``final`` maps a wire at the current point to the
    circuit wire its photons end on; a permutation src -> dst updates it and
    is dropped.  Propagating the list leaves every photon where the whole
    circuit would."""
    final: dict[int, int] = {}
    folded = []
    for el in reversed(circuit.elements):
        perm = _permutation(el)
        if perm is None:
            folded.append(_moved(el, final))
        else:
            final.update({src: final.get(dst, dst) for src, dst in perm.items()})
    folded.reverse()
    return folded


def _merge(owner: dict[int, tuple[FockState, frozenset[int]]],
           wires: Iterable[int]) -> tuple[FockState, frozenset[int]]:
    """The tensor product of the factors in ``owner`` that hold any of
    ``wires``, and the wires it holds: theirs and ``wires``, the ones no
    factor owns in vacuum."""
    wires = frozenset(wires)
    state = None
    for part, part_wires in {id(f): f for f in map(owner.get, wires) if f is not None}.values():
        state = part if state is None else fock.tensor(state, part)
        wires |= part_wires
    return (FockState.vacuum() if state is None else state), wires


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


def _herald_schedule(circuit: Circuit,
                     elements: Sequence) -> dict[int, list[tuple[DetectorGroup, set[int]]]]:
    """Index into ``elements``, the circuit on its final wires (see
    :func:`_on_final_wires`) -> the (detector group, wire set) count filters
    to project right after that element.

    Walking the elements backward, a group's filter set is the union of the
    wire components, linked by the elements after the current one, that hold
    its detector wires.  Each later element acts wholly inside or wholly
    outside that set, so its photon count is conserved to the end unless a
    later source adds to it.  The set is usable while it meets no output
    wire, no later source's wire and no other group's detector wire; it
    only grows, so once unusable it stays so.  Each group is filtered at its
    earliest usable index.
    """
    barrier = set(circuit.outputs)
    detectors = circuit.detector_wires()
    linked: dict[int, set[int]] = {}
    pending = list(circuit.detector_groups)
    earliest: dict[DetectorGroup, tuple[int, set[int]]] = {}
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
    schedule: dict[int, list[tuple[DetectorGroup, set[int]]]] = {}
    for grp, (i, span) in earliest.items():
        schedule.setdefault(i, []).append((grp, span))
    return schedule


def run_heralded(circuit: Circuit, check: bool = True) -> list[HeraldOutcome]:
    """Enumerate every detector signature meeting all group requirements.

    Outcome probabilities sum to the scheme's total heralding probability.
    Signatures violating any group's required count are dropped; a detector
    budget exceeding the photon supply therefore yields an empty list.

    Each group's required-count filter is projected during propagation, at
    the point :func:`_herald_schedule` proves it commutes with the rest of
    the circuit; this only prunes terms that the final filter would reject.
    The state is held as a product of factors (see the module docstring)
    until the last element, after which all factors are merged.
    """
    if check:
        diags = validate(circuit)
        if diags:
            raise SimulationError("invalid circuit: " + "; ".join(diags))
    elements = _on_final_wires(circuit)
    schedule = _herald_schedule(circuit, elements)
    # owner[w] is the factor, a (state, wires) pair, that holds wire w;
    # factors hold disjoint wires, and a wire no factor holds is in vacuum.
    owner: dict[int, tuple[FockState, frozenset[int]]] = {}
    for i, el in enumerate(elements):
        state, wires = _merge(owner, el.wires_used())
        owner.update(dict.fromkeys(wires, (apply_element(state, el), wires)))
        for grp, span in schedule.get(i, ()):
            state, wires = _merge(owner, span)
            state, _ = fock.project_count(state, span, grp.required)
            if state.is_zero():
                return []
            owner.update(dict.fromkeys(wires, (state, wires)))
    state, _ = _merge(owner, list(owner))
    return _outcomes(state, circuit)


def _outcomes(state: FockState, circuit: Circuit) -> list[HeraldOutcome]:
    """Sort the final state into heralded outcomes in one pass over its
    terms.

    A term is bucketed by its detector signature, its detector pairs, and
    keyed by the rest of its pairs; both stay sorted, and the two together
    give back the occupation, so no two terms of a bucket collide.  A
    signature is accepted when every group's detector count equals its
    required count.  The filters placed during propagation do not make this
    check redundant: each fixes the count on its whole span, which may hold
    wires that are neither detectors nor outputs.  A photon on such a wire
    raises only in an accepted signature.
    """
    detectors = circuit.detector_wires()
    buckets: dict[fock.Occupation, dict[fock.Occupation, complex]] = defaultdict(dict)
    for occ, amp in state.terms():
        sig = []
        rest = []
        for pair in occ:
            (sig if pair[0] in detectors else rest).append(pair)
        buckets[tuple(sig)][tuple(rest)] = amp
    required = [grp.required for grp in circuit.detector_groups]
    groups_of: dict[int, list[int]] = {}
    for g, grp in enumerate(circuit.detector_groups):
        for w in grp.wires:
            groups_of.setdefault(w, []).append(g)
    outcomes: list[HeraldOutcome] = []
    for sig in sorted(buckets):
        counts = [0] * len(required)
        for w, n in sig:
            for g in groups_of.get(w, ()):
                counts[g] += n
        if counts != required:
            continue
        bucket = buckets[sig]
        stray = {w for key in bucket for w, _ in key}.difference(circuit.outputs)
        if stray:
            raise SimulationError(f"herald left photons on non-output wires {sorted(stray)}")
        comp = FockState._adopt(bucket)
        prob = fock.norm2(comp)
        outcomes.append(HeraldOutcome(sig, prob, fock.scale(comp, 1.0 / math.sqrt(prob))))
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

_ANGLE_TOL = 1e-7


def _wrap(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _phase_solutions(rows: list[np.ndarray], angles: np.ndarray, n: int):
    """Solutions x of sum_k rows[i][k] x_k = angles[i] (mod 2pi), free vars 0,
    for a batch of right-hand sides at once: ``angles[i]`` holds equation
    i's angle for each of R systems.

    Integer coefficient matrix, shared by the batch, so every pivot and
    branch choice depends on ``rows`` alone: eliminates with unit pivots,
    branches on single-variable rows with larger coefficients, rejects
    anything else.  Yields ``(consistent, x)`` per branch choice: x is an
    (R, n) array of candidates, valid where ``consistent`` is set.
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

    consistent = np.ones(angles.shape[1], dtype=bool)
    branch_vars: list[tuple[int, int, np.ndarray]] = []
    for r, a in eqs:
        nz = np.where(np.abs(r) > 1e-9)[0]
        if nz.size == 0:
            consistent &= np.abs(_wrap(a)) <= _ANGLE_TOL
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
        yield consistent, x


def _corrections(target: QubitState, keys: np.ndarray, amps: np.ndarray, n_rows: int,
                 atol: float) -> list[tuple[tuple[str, ...], float] | None]:
    """Corrections for a batch of residuals, read as their entries: the
    sorted keys ``row << n | index`` and the amplitudes there (see
    :func:`sculpting.qubit_entries`).

    Walks the bit-flip masks once, in increasing order, testing every
    pending row at each; a row takes the first mask and the first phase
    solution there whose fidelity is >= 1 - atol.  Only the entries at the
    support indices ``supp ^ mask`` are looked up, a missing key reading as
    0: a row is nil off them when they hold all of its entries above 1e-7,
    and a diagonal phase keeps the unit norm, so the fidelity is
    |t_supp . corrected|^2.  The phase equations come from the support
    entries above the 1e-7 fit tolerance alone, where a fitting row is
    nonzero.
    """
    n = target.n_qubits
    t = target.normalized().amps
    supp = np.flatnonzero(np.abs(t) > 1e-10)
    t_supp = t[supp]
    abs_t_supp = np.abs(t_supp)
    bits = ((supp[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(int)
    strong = np.flatnonzero(abs_t_supp > 1e-7)
    eq_rows = list(bits[strong[1:]] - bits[strong[0]])
    row_of = keys >> n
    norms = np.sqrt(np.bincount(row_of, weights=(amps.conj() * amps).real, minlength=n_rows))
    if not norms.all():
        raise ValueError("zero state has no qubit reading")
    amps = amps / norms[row_of]
    big = np.bincount(row_of[np.abs(amps) > 1e-7], minlength=n_rows)
    found: list[tuple[tuple[str, ...], float] | None] = [None] * n_rows
    pending = np.arange(n_rows)
    for a_mask in range(2 ** n):
        if not pending.size:
            break
        want = pending[:, None] << n | (supp ^ a_mask)
        at = keys.searchsorted(want).clip(max=keys.size - 1)
        on_supp = np.where(keys[at] == want, amps[at], 0)
        mags = np.abs(on_supp)
        fits = ~np.any(np.abs(mags - abs_t_supp) > 1e-7, axis=1)
        fits &= np.count_nonzero(mags > 1e-7, axis=1) == big[pending]
        cand = np.flatnonzero(fits)
        if not cand.size:
            continue
        perm = on_supp[cand]
        q = np.angle(t_supp[strong] / perm[:, strong])
        hit = np.zeros(cand.size, dtype=bool)
        for consistent, x in _phase_solutions(eq_rows, _wrap(q[:, 1:] - q[:, :1]).T, n):
            live = np.flatnonzero(consistent & ~hit)
            if not live.size:
                break
            corrected = np.exp(1j * (x[live] @ bits.T)) * perm[live]
            fid = np.abs(np.vecdot(t_supp, corrected)) ** 2
            good = fid >= 1.0 - atol
            rows = live[good]
            for row, labels, f in zip(pending[cand[rows]], _labels(a_mask, x[rows]), fid[good]):
                found[row] = (labels, float(f))
            hit[rows] = True
        pending = np.delete(pending, cand[hit])
    return found


def _labels(a_mask: int, x: np.ndarray) -> list[tuple[str, ...]]:
    """Per-mode labels of the correction (a_mask, x) for each row of x."""
    n = x.shape[1]
    phi = _wrap(x)
    ratio = phi / math.pi
    # The smallest denominator d <= 12 that fits is the reduced one; d = 1
    # is no phase (0/1) or Z (+-1/1), and d = 0 is no fit.
    ds = np.arange(1, 13)
    fits = np.abs(phi[..., None] - np.round(ratio[..., None] * ds) / ds * math.pi) <= 1e-7
    den = np.where(fits.any(axis=-1), ds[fits.argmax(axis=-1)], 0)
    num = np.round(ratio * den).astype(int)
    flips = ["X" if (a_mask >> (n - 1 - k)) & 1 else "" for k in range(n)]

    def label(flip: str, m: int, d: int, p: float) -> str:
        if not d:
            phase = f"P({p:.6f})"
        elif d == 1:
            phase = "Z" if m else ""
        else:
            phase = f"P({Fraction(m, d)}pi)"
        return flip + phase or "I"

    memo: dict[tuple, tuple[str, ...]] = {}
    out = []
    for nums, dens, phis in zip(num.tolist(), den.tolist(), phi.tolist()):
        key = (tuple(nums), tuple(dens))
        if key not in memo or 0 in dens:
            memo[key] = tuple(map(label, flips, nums, dens, phis))
        out.append(memo[key])
    return out


def classify_feedforward(outcomes: Sequence[HeraldOutcome], target: QubitState,
                         circuit: Circuit, atol: float = fock.ATOL) -> list[HeraldOutcome]:
    """Populate correction labels on a copy of each outcome.

    Outcomes split into identity-correct (no correction needed, up to global
    phase), correctable (a local correction reaches the target exactly), and
    failed (correction is None).
    """
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
