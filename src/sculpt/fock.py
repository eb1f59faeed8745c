"""Exact sparse second-quantized state algebra.

States live in the bosonic Fock space over an arbitrary set of integer wire
ids (one id per single-mode channel, e.g. one spatial path with one
polarization).  A state is a sparse complex superposition of occupation
vectors; all operations are pure and return new states.

Conventions:
    * amplitudes below ``DROP_TOL`` are dropped at insertion,
    * comparisons use absolute tolerance ``ATOL``, the package's one
      default tolerance,
    * an empty term map is the zero state.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from typing import Iterable, Iterator, Mapping, Sequence

WireId = int

# Occupation vector: sorted tuple of (wire, count) pairs with count >= 1.
Occupation = tuple[tuple[WireId, int], ...]

DROP_TOL = 1e-12
ATOL = 1e-9


class FockState:
    """Sparse superposition of boson occupation vectors.

    Terms map occupation vectors to complex amplitudes.  Physical states have
    squared norm <= 1; sub-normalized states represent post-selected branches.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Occupation, complex] | None = None) -> None:
        data: dict[Occupation, complex] = {}
        if terms:
            for occ, amp in terms.items():
                if abs(amp) >= DROP_TOL:
                    data[occ] = complex(amp)
        self._terms = data

    @classmethod
    def _adopt(cls, terms: dict[Occupation, complex]) -> "FockState":
        """Wrap a dict a kernel of this module built, with no copy and no
        re-filter: every amplitude in it is complex and already at least
        ``DROP_TOL``, e.g. copied unchanged from another state."""
        state = cls.__new__(cls)
        state._terms = terms
        return state

    # -- construction -----------------------------------------------------

    @staticmethod
    def vacuum() -> "FockState":
        return FockState({(): 1.0 + 0.0j})

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[Occupation, complex]]:
        return iter(self._terms.items())

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for occ, amp in sorted(self._terms.items()):
            ket = " ".join(f"{n}_{w}" for w, n in occ) or "vac"
            parts.append(f"({amp:.4g})|{ket}>")
        return " + ".join(parts) if parts else "0"


def norm2(state: FockState) -> float:
    """Squared norm <state|state>."""
    return sum(abs(a) ** 2 for _, a in state.terms())


def scale(state: FockState, c: complex) -> FockState:
    return FockState({occ: c * amp for occ, amp in state.terms()})


def ladder(state: FockState, legs: Sequence[tuple[WireId, complex]],
           create: bool = False) -> FockState:
    """Apply sum_i c_i a_{w_i}, or sum_i c_i a†_{w_i} if ``create``, in one
    pass over the terms.

    Each occupation is read once: every leg finds its wire by bisection and
    splices the one changed (wire, count) pair into the key, picking up
    sqrt(n) on annihilation of n photons and sqrt(n+1) on creation.  Legs
    with |c| < ``DROP_TOL`` are skipped, and amplitudes that cancel are
    dropped.  Repeated wires among the legs add up.
    """
    step = 1 if create else -1
    legs = [(w, (w,), c) for w, c in legs if abs(c) >= DROP_TOL]
    sqrt = math.sqrt
    out: dict[Occupation, complex] = {}
    get = out.get
    for occ, amp in state.terms():
        size = len(occ)
        for w, probe, c in legs:
            i = bisect_left(occ, probe)
            if i < size and occ[i][0] == w:
                n = occ[i][1]
                m = n + step
                key = occ[:i] + ((w, m),) + occ[i + 1:] if m else occ[:i] + occ[i + 1:]
                amp_n = amp * sqrt(m if create else n)
            elif create:
                key = occ[:i] + ((w, 1),) + occ[i:]
                amp_n = amp
            else:
                continue
            out[key] = get(key, 0.0) + c * amp_n
    return FockState(out)


def project_count(state: FockState, wires: Iterable[WireId], n: int) -> tuple[FockState, float]:
    """Component whose total photon count over ``wires`` equals n.

    Returns the sub-normalized component and its probability (squared norm of
    the component, assuming a normalized input).
    """
    wset = set(wires)
    comp: dict[Occupation, complex] = {}
    for occ, amp in state.terms():
        tot = sum(ni for wi, ni in occ if wi in wset)
        if tot == n:
            comp[occ] = amp
    out = FockState._adopt(comp)
    return out, norm2(out)


def group_by_counts(state: FockState, wires: Iterable[WireId]):
    """Split a state by its exact occupation signature on ``wires``.

    Yields ``(signature, component)`` pairs where signature is a sorted tuple
    of (wire, count) restricted to ``wires`` (zero counts omitted).  The
    components partition the state, so their squared norms sum to norm2.
    """
    wset = set(wires)
    buckets: dict[Occupation, dict[Occupation, complex]] = {}
    for occ, amp in state.terms():
        sig = tuple((wi, ni) for wi, ni in occ if wi in wset)
        buckets.setdefault(sig, {})[occ] = amp
    for sig in sorted(buckets):
        yield sig, FockState._adopt(buckets[sig])


def substitute(state: FockState, rules: Mapping[WireId, Sequence[tuple[WireId, complex]]]) -> FockState:
    """Apply a linear substitution on creation operators.

    ``rules[w] = [(w', c'), ...]`` means a†_w -> sum c' a†_{w'}; wires not in
    ``rules`` are untouched.  Terms are grouped by their occupation of the
    rule wires.  Each group's image is built once, from vacuum with
    :func:`ladder`, and merged into every rest of the group by adding the
    counts.  An image wire outside the rule keys gets the identity rule, so
    a rest never holds an image wire and the merge needs no sqrt factor:
    the ladder has applied them all.  Unitary rules preserve the squared norm
    exactly.
    """
    rules = {**{v: ((v, 1.0),) for legs in rules.values() for v, _ in legs}, **rules}
    groups: dict[Occupation, list[tuple[Occupation, complex]]] = {}
    for occ, amp in state.terms():
        local = tuple([p for p in occ if p[0] in rules])
        rest = tuple([p for p in occ if p[0] not in rules])
        groups.setdefault(local, []).append((rest, amp))
    out: dict[Occupation, complex] = {}
    for local, rests in groups.items():
        image = FockState.vacuum()
        for w, n in local:
            for _ in range(n):
                image = ladder(image, rules[w], create=True)
            if n > 1:
                image = scale(image, 1.0 / math.sqrt(math.factorial(n)))
        image_terms = list(image.terms())
        for rest, amp in rests:
            for img, c in image_terms:
                key = tuple(sorted(rest + img))
                out[key] = out.get(key, 0.0) + amp * c
    return FockState(out)


def allclose(a: FockState, b: FockState, atol: float = ATOL) -> bool:
    """Termwise comparison within absolute tolerance."""
    keys = set(a._terms) | set(b._terms)
    return all(abs(a._terms.get(k, 0.0) - b._terms.get(k, 0.0)) <= atol for k in keys)


_MAX_NUM = 2 ** 16
_MAX_ODD = 81
_RTOL = 1e-9


@functools.lru_cache(maxsize=256)
def rationalize(p: float) -> str | None:
    """Render a probability as an exact fraction n / (d 2^k), d odd, if one
    fits.

    Returns e.g. "1/32", "5/1152" or "1/81920", or None when no such
    fraction with d <= ``_MAX_ODD`` lies within ``_RTOL`` of p, relative to
    p.  The bound covers 3^m up to 81 and the factor n of the W closed
    forms.  The power of two grows until the numerator would pass
    ``_MAX_NUM``, so the tiny probabilities of large schemes render as
    exactly as the small ones, and a tiny p is never rounded to "0".  Raw
    floats remain the source of truth; this is for human-readable reports
    only.  Memoized: a report repeats a few distinct probabilities many
    times.
    """
    if p == 0:
        return "0"
    if p < 0 or p > 1 + _RTOL:
        return None
    best: tuple[int, int] | None = None
    for odd in range(1, _MAX_ODD + 1, 2):
        # Largest power of two keeping p * den <= _MAX_NUM.  A fraction that
        # fits at a smaller power also fits here, with num and den scaled by
        # the same power of two, so this one test per odd factor suffices.
        k = math.frexp(_MAX_NUM / (p * odd))[1] - 1
        if k < 0:
            break
        den = odd << k
        num = round(p * den)
        if abs(p - num / den) <= _RTOL * p:
            g = math.gcd(num, den)
            if best is None or den // g < best[1]:
                best = (num // g, den // g)
    if best is None:
        return None
    num, den = best
    if den == 1:
        return str(num)
    return f"{num}/{den}"
