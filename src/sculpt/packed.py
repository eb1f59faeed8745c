"""Packed occupations: one integer per Fock term, and the propagation kernel
on them.

A circuit's wire ids are dense 0..m-1 (:func:`circuit.validate` checks
this), so wire w owns the bit field at offset w*b of a term's key, where b,
the field width, is the bit length of the circuit's total source photons.
No wire's count can exceed that total, so no field overflows into the next.
A factor of the propagated state maps keys to amplitudes.  The tensor
product of two factors on disjoint wires ORs their keys; a source adds to
its wire's field; a multiport replaces the fields of its wires
(``key & mask``) by those of each image term; a count filter reads a key
under the mask of the wires it counts.  Each lowered element reaches the
kernel as a :class:`Step`: its wires with their offsets and mask, computed
once.  :func:`unpack` turns a key back into the ``(wire, count)`` occupation
that :mod:`fock` states are keyed by.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple

from . import fock
from .circuit import fourier
from .fock import FockState

# occupation key (wire w's count in bits [w*width, (w+1)*width)) -> amplitude
Packed = dict[int, complex]


def field_width(photons: int) -> int:
    """The field width of a circuit whose sources emit ``photons`` in all."""
    return max(photons, 1).bit_length()


def field_mask(wires: Iterable[int], width: int) -> int:
    """The bits of the fields of ``wires``."""
    fmask = (1 << width) - 1
    mask = 0
    for w in wires:
        mask |= fmask << w * width
    return mask


def unpack(key: int, width: int) -> fock.Occupation:
    """The sorted (wire, count) pairs of the nonzero fields of ``key``,
    found from its lowest set bit up."""
    fmask = (1 << width) - 1
    pairs = []
    while key:
        off = ((key & -key).bit_length() - 1) // width * width
        n = key >> off & fmask
        pairs.append((off // width, n))
        key ^= n << off
    return tuple(pairs)


@functools.lru_cache(maxsize=4096)
def _mixer_image(n: int, arity: int,
                 counts: tuple[int, ...]) -> tuple[tuple[fock.Occupation, complex], ...]:
    """The image of an n-port Fourier mixer's input occupation, in
    port-relative wires: wire j*arity + slot is port j's channel slot, and
    ``counts`` lists their counts in that order.  Built from vacuum with
    :func:`fock.ladder`, as :func:`fock.substitute` builds each image."""
    u = fourier(n)
    image = FockState.vacuum()
    for r, count in enumerate(counts):
        j, slot = divmod(r, arity)
        legs = tuple((k * arity + slot, u[k][j]) for k in range(n))
        for _ in range(count):
            image = fock.ladder(image, legs, create=True)
        if count > 1:
            image = fock.scale(image, 1.0 / math.sqrt(math.factorial(count)))
    return tuple(image.terms())


class Step(NamedTuple):
    """One lowered source or multiport on packed keys.  ``wires`` lists its
    wires port by port, at field offsets ``offs``, under the field mask
    ``mask``.  A source has ``n`` 0 and adds ``k`` photons to its one wire;
    a multiport is an n-port Fourier mixer of ``k`` wires per port."""

    wires: tuple[int, ...]
    offs: tuple[int, ...]
    mask: int
    n: int
    k: int


def step(wires: tuple[int, ...], n: int, k: int, width: int) -> Step:
    """The step of a source (``n`` 0, ``k`` photons) or an n-port mixer of
    ``k`` wires per port on ``wires``, at field width ``width``."""
    return Step(wires, tuple([w * width for w in wires]), field_mask(wires, width), n, k)


def apply(terms: Packed, st: Step, width: int) -> Packed:
    """One step on a factor's terms.

    A source of k photons on a wire holding m adds k to its field and
    multiplies the amplitude by sqrt(C(m + k, k)).  A multiport reads its
    wires' fields as ``local = key & mask``; each distinct ``local``'s image
    is shifted onto the element's fields once and OR'd into ``key ^ local``.
    Amplitudes below ``fock.DROP_TOL`` are dropped, as
    :func:`fock.substitute` drops them."""
    _, offs, mask, n, k = st
    if not n:
        off = offs[0]
        return {key + (k << off): amp * math.sqrt(math.comb(((key & mask) >> off) + k, k))
                for key, amp in terms.items()}
    fmask = (1 << width) - 1
    images: dict[int, list[tuple[int, complex]]] = {}
    out: Packed = {}
    get = out.get
    for key, amp in terms.items():
        local = key & mask
        image = images.get(local)
        if image is None:
            counts = tuple(local >> off & fmask for off in offs)
            image = images[local] = [
                (sum(count << offs[r] for r, count in occ), c)
                for occ, c in _mixer_image(n, k, counts)]
        rest = key ^ local
        for img, c in image:
            key_out = rest | img
            out[key_out] = get(key_out, 0.0) + amp * c
    return {key: amp for key, amp in out.items() if abs(amp) >= fock.DROP_TOL}


def tensor(a: Packed, b: Packed) -> Packed:
    """The product of two factors on disjoint wires; products below
    ``fock.DROP_TOL`` are dropped, as a :class:`fock.FockState` drops them."""
    return {ka | kb: c for ka, aa in a.items() for kb, ab in b.items()
            if abs(c := aa * ab) >= fock.DROP_TOL}


def project(terms: Packed, mask: int, required: int, width: int) -> Packed:
    """The terms whose photon count over the fields under ``mask`` is
    ``required``; each distinct occupation of those fields is counted once."""
    counts = {local: sum(n for _, n in unpack(local, width))
              for local in {key & mask for key in terms}}
    return {key: amp for key, amp in terms.items() if counts[key & mask] == required}
