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
under the mask of the wires it counts.  :func:`unpack` turns a key back into
the ``(wire, count)`` occupation that :mod:`fock` states are keyed by.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

from . import fock
from .circuit import Source, fourier
from .fock import FockState

# occupation key (wire w's count in bits [w*width, (w+1)*width)) -> amplitude
Packed = dict[int, complex]


def field_width(photons: int) -> int:
    """The field width of a circuit whose sources emit ``photons`` in all."""
    return max(photons, 1).bit_length()


def field_mask(wires: Iterable[int], width: int) -> int:
    """The bits of the fields of ``wires``."""
    return sum(((1 << width) - 1) << w * width for w in wires)


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


def apply(terms: Packed, el, width: int) -> Packed:
    """One lowered source or multiport, on a factor's terms.

    A source of k photons on a wire holding m adds k to its field and
    multiplies the amplitude by sqrt(C(m + k, k)).  A multiport reads its
    wires' fields as ``local = key & mask``; each distinct ``local``'s image
    is shifted onto the element's fields once and OR'd into ``key ^ local``.
    Amplitudes below ``fock.DROP_TOL`` are dropped, as
    :func:`fock.substitute` drops them."""
    fmask = (1 << width) - 1
    if isinstance(el, Source):
        off = el.wire * width
        k = el.photons
        return {key + (k << off): amp * math.sqrt(math.comb((key >> off & fmask) + k, k))
                for key, amp in terms.items()}
    wires = el.wires_used()
    offs = [w * width for w in wires]
    mask = field_mask(wires, width)
    arity = len(el.ports[0])
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
                for occ, c in _mixer_image(el.n, arity, counts)]
        rest = key ^ local
        for img, c in image:
            k = rest | img
            out[k] = get(k, 0.0) + amp * c
    return {k: amp for k, amp in out.items() if abs(amp) >= fock.DROP_TOL}


def tensor(a: Packed, b: Packed) -> Packed:
    """The product of two factors on disjoint wires; products below
    ``fock.DROP_TOL`` are dropped, as a :class:`fock.FockState` drops them."""
    return {ka | kb: c for ka, aa in a.items() for kb, ab in b.items()
            if abs(c := aa * ab) >= fock.DROP_TOL}


def project(terms: Packed, wires: Iterable[int], required: int, width: int) -> Packed:
    """The terms whose photon count over ``wires`` is ``required``; each
    distinct occupation of those wires is counted once."""
    mask = field_mask(wires, width)
    counts = {local: sum(n for _, n in unpack(local, width))
              for local in {key & mask for key in terms}}
    return {key: amp for key, amp in terms.items() if counts[key & mask] == required}
