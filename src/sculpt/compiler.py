"""Lowering from sculpting bigraphs to linear-optical circuits.

The emitted circuit follows a fixed stage pipeline:

    source    one H+V photon pair per main mode, one H photon per ancilla
    prep      one HWP per mode (pairs become two-photon H/V bunches,
              ancilla photons become diagonal)
    split     one PBS per main mode (H keeps the mode location, V moves to a
              fresh lower location); one Fourier port per ancilla circle of
              out-degree >= 2, fanning its photon toward its dots
    route     a single wire permutation carrying every subtractor leg to its
              block location
    subtract  per-dot subtractor front end: HWP + PBS tap-off on main legs,
              a wave plate matching the ancilla photon's polarization to the
              block's tap channel on ancilla legs
    merge     a PBS per general-form return; an optimized return needs none
    mix       which-path erasure over each block's tap locations (a second
              HWP+PBS for the optimized subtractor, a balanced BS/Fourier
              port otherwise); the mixer outputs are the detector wires

Two subtractor realizations exist: the optimized form (exactly two main legs
with orthogonal internal states, no ancilla legs) and the general form (any
number of same-color main legs plus ancilla legs, equal magnitudes).  Dots
outside both families raise :class:`CompileError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bigraph import CircleKind, Edge, SculptingBigraph, non_epm_circles
from .circuit import (DUAL_RAIL, POLARIZATION, Circuit, DetectorGroup, HWP,
                      Multiport, PBS, Source, Swap, UHWP, Wire, dual_rail_element)
from .fock import ATOL


class CompileError(ValueError):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass
class MainLeg:
    circle: str
    color: str            # "+" (red) or "-" (blue)
    leg_loc: str          # location carrying the two-photon bunch at the block
    tap_loc: str          # location whose tap channel feeds the mixer
    tap_channel: str      # "V" for red legs, "H" for blue legs
    ret_loc: str          # location carrying the surviving photon


@dataclass
class AncLeg:
    circle: str
    leg_loc: str
    channels: tuple[str, ...]  # occupiable tap channels after the plate


@dataclass
class Block:
    kind: str              # "optimized" | "general"
    main_legs: list[MainLeg]
    anc_legs: list[AncLeg]
    tap_locs: list[str] = field(default_factory=list)
    pre_mix_wires: tuple[int, ...] = ()


@dataclass
class Layout:
    """Wire bookkeeping the tests and goldens navigate by."""

    loc_wires: dict[str, dict[str, int]]
    low_locs: dict[str, str]            # main label -> lower location
    port_locs: dict[str, list[str]]     # ancilla label -> port output locations
    blocks: dict[int, Block]

    def wire(self, loc: str, channel: str) -> int:
        return self.loc_wires[loc][channel]


def _plan_dot(g: SculptingBigraph, dot: int) -> tuple[str, list[Edge], list[Edge]]:
    """Classify one dot against the known subtractor realizations."""
    legs = g.edges_of_dot(dot)
    mains = [e for e in legs if g.circle(e.mode).kind is CircleKind.MAIN]
    ancs = [e for e in legs if g.circle(e.mode).kind is CircleKind.ANCILLA]
    d = len(legs)
    mag = 1.0 / math.sqrt(d)
    if any(abs(abs(e.amplitude) - mag) > ATOL for e in legs):
        raise CompileError([f"dot {dot}: legs must have equal magnitude 1/sqrt({d})"])
    colors = {e.state.name for e in mains}  # EPM pattern A: "+" or "-" only

    if len(mains) == 2 and not ancs and colors == {"+", "-"}:
        kind = "optimized"
    elif len(colors) <= 1:
        kind = "general"
    else:
        raise CompileError(
            [f"dot {dot}: no known subtractor realization for mixed-color "
             f"main legs combined with ancilla legs"])

    # Sign pattern realized by the hardware: + on |+> and ancilla legs,
    # - on |-> legs, up to one free phase per dot.
    ref = None
    for e in legs:
        sigma = -1.0 if e.state.name == "-" else 1.0
        ratio = e.amplitude / (sigma * mag)
        if ref is None:
            ref = ratio
        elif abs(ratio - ref) > 1e-6:
            raise CompileError(
                [f"dot {dot}: no known subtractor realization for its "
                 f"amplitude phase pattern"])
    if kind == "optimized":
        mains.sort(key=lambda e: e.state.name, reverse=False)  # "+" before "-"
    return kind, mains, ancs


def compile_graph(g: SculptingBigraph) -> Circuit:
    """Translate an EPM sculpting bigraph into a heralded optical circuit."""
    bad = non_epm_circles(g)
    if bad:
        raise CompileError([f"circle {b!r} does not match an EPM pattern" for b in bad])

    # Both rejections are decided before any element is built: the dot plans,
    # and the return collision, which the plans' block kinds decide: a main
    # circle whose red (+) leg is in an optimized block and whose blue (-)
    # leg is in a general one.
    plans = {dot: _plan_dot(g, dot) for dot in g.dot_ids()}
    kind_of = {(e.mode, e.state.name): kind
               for kind, main_edges, _ in plans.values() for e in main_edges}
    mains = g.main_labels()
    for label in mains:
        if kind_of[label, "-"] == "general" and kind_of[label, "+"] == "optimized":
            raise CompileError(
                [f"mode {label!r}: optimized subtractor return collides with a "
                 f"general subtractor return; no known realization"])

    wires: list[Wire] = []
    loc_wires: dict[str, dict[str, int]] = {}

    def new_loc(name: str) -> str:
        if name in loc_wires:
            # circles take their locations first, so name is a circle's label
            raise CompileError([f"circle {name!r} has the name of a location the "
                                f"compiler derives for another circle or dot; "
                                f"rename it"])
        pair = {}
        for ch in ("H", "V"):
            pair[ch] = len(wires)
            wires.append(Wire(len(wires), name, ch))
        loc_wires[name] = pair
        return name

    def wid(loc: str, ch: str) -> int:
        return loc_wires[loc][ch]

    elements = []

    # source + prep ---------------------------------------------------------
    for label in mains:
        new_loc(label)
        elements.append(Source(wid(label, "H"), 1))
        elements.append(Source(wid(label, "V"), 1))
    for label in g.ancillas:
        new_loc(label)
        elements.append(Source(wid(label, "H"), 1))
    for label in mains + list(g.ancillas):
        elements.append(HWP(label, wid(label, "H"), wid(label, "V"), "prep"))

    # split -----------------------------------------------------------------
    low_locs: dict[str, str] = {}
    for label in mains:
        low = new_loc(f"{label}.lo")
        low_locs[label] = low
        elements.append(PBS(label, low, wid(label, "H"), wid(label, "V"),
                            wid(low, "H"), wid(low, "V"), "split"))
    port_locs: dict[str, list[str]] = {}
    anc_targets: dict[str, list[int]] = {}
    for label in g.ancillas:
        targets = sorted(e.dot for e in g.edges_of_circle(label))
        anc_targets[label] = targets
        outs = [label] + [new_loc(f"{label}.p{i}") for i in range(1, len(targets))]
        port_locs[label] = outs
        if len(outs) >= 2:
            ports = tuple((wid(loc, "H"), wid(loc, "V")) for loc in outs)
            elements.append(Multiport(ports, "split"))

    # blocks and routed leg locations ----------------------------------------
    route_pairs: list[tuple[int, int]] = []
    blocks: dict[int, Block] = {}

    for dot in g.dot_ids():
        kind, main_edges, anc_edges = plans[dot]
        main_legs: list[MainLeg] = []
        for i, e in enumerate(main_edges):
            if e.state.name == "+":
                # red legs anchor the block on the mode location itself
                main_legs.append(MainLeg(e.mode, "+", e.mode, "", "V", e.mode))
            else:
                leg = new_loc(f"s{dot}.m{i}")
                src = low_locs[e.mode]
                for ch in ("H", "V"):
                    route_pairs.append((wid(src, ch), wid(leg, ch)))
                main_legs.append(MainLeg(e.mode, "-", leg, "", "H", ""))
        anc_legs: list[AncLeg] = []
        for i, e in enumerate(anc_edges):
            leg = new_loc(f"s{dot}.a{i}")
            idx = anc_targets[e.mode].index(dot)
            src = port_locs[e.mode][idx]
            for ch in ("H", "V"):
                route_pairs.append((wid(src, ch), wid(leg, ch)))
            anc_legs.append(AncLeg(e.mode, leg, ()))
        blocks[dot] = Block(kind, main_legs, anc_legs)

    if route_pairs:
        mapping = dict(route_pairs)
        for a, b in route_pairs:
            mapping.setdefault(b, a)
        elements.append(Swap(tuple(sorted(mapping.items())), "route"))

    # subtract ----------------------------------------------------------------
    for dot in g.dot_ids():
        blk = blocks[dot]
        if blk.kind == "optimized":
            red, blue = blk.main_legs
            t, b = red.leg_loc, blue.leg_loc
            elements.append(HWP(t, wid(t, "H"), wid(t, "V"), "subtract"))
            elements.append(HWP(b, wid(b, "H"), wid(b, "V"), "subtract"))
            elements.append(PBS(t, b, wid(t, "H"), wid(t, "V"),
                                wid(b, "H"), wid(b, "V"), "subtract"))
            red.ret_loc = t
            blue.ret_loc = t
            blk.tap_locs = [b]
            continue
        tap_channel = "V" if any(l.color == "+" for l in blk.main_legs) else "H"
        for i, leg in enumerate(blk.main_legs):
            loc = leg.leg_loc
            elements.append(HWP(loc, wid(loc, "H"), wid(loc, "V"), "subtract"))
            if leg.color == "+":
                tap = new_loc(f"s{dot}.t{i}")
                elements.append(PBS(loc, tap, wid(loc, "H"), wid(loc, "V"),
                                    wid(tap, "H"), wid(tap, "V"), "subtract"))
                leg.tap_loc = tap
                blk.tap_locs.append(tap)
            else:
                ret = new_loc(f"s{dot}.r{i}")
                elements.append(PBS(loc, ret, wid(loc, "H"), wid(loc, "V"),
                                    wid(ret, "H"), wid(ret, "V"), "subtract"))
                leg.tap_loc = loc
                leg.ret_loc = ret
                blk.tap_locs.append(loc)
        for leg in blk.anc_legs:
            loc = leg.leg_loc
            if not blk.main_legs:
                leg.channels = ("H", "V")
            elif tap_channel == "V":
                elements.append(UHWP(loc, wid(loc, "H"), wid(loc, "V"), "subtract"))
                leg.channels = ("V",)
            else:
                elements.append(HWP(loc, wid(loc, "H"), wid(loc, "V"), "subtract"))
                leg.channels = ("H",)
            blk.tap_locs.append(loc)

    # merge -------------------------------------------------------------------
    blue_leg_of = {leg.circle: leg for blk in blocks.values() if blk.kind == "general"
                   for leg in blk.main_legs if leg.color == "-"}
    for label in mains:
        if label not in blue_leg_of:
            continue  # an optimized return already sits on the mode location
        ret = blue_leg_of[label].ret_loc
        elements.append(PBS(label, ret, wid(label, "H"), wid(label, "V"),
                            wid(ret, "H"), wid(ret, "V"), "merge"))

    # mix + detector groups ----------------------------------------------------
    groups: list[DetectorGroup] = []
    for dot in g.dot_ids():
        blk = blocks[dot]
        if blk.kind == "optimized":
            b = blk.tap_locs[0]
            det = new_loc(f"s{dot}.d")
            elements.append(HWP(b, wid(b, "H"), wid(b, "V"), "mix"))
            elements.append(PBS(b, det, wid(b, "H"), wid(b, "V"),
                                wid(det, "H"), wid(det, "V"), "mix"))
            det_wires = (wid(b, "H"), wid(det, "V"))
            blk.pre_mix_wires = (wid(b, "H"), wid(b, "V"))
        else:
            chans: dict[str, tuple[str, ...]] = {}
            for leg in blk.main_legs:
                chans[leg.tap_loc] = (leg.tap_channel,)
            for leg in blk.anc_legs:
                chans[leg.leg_loc] = leg.channels
            if len(blk.tap_locs) >= 2:
                ports = tuple((wid(loc, "H"), wid(loc, "V")) for loc in blk.tap_locs)
                elements.append(Multiport(ports, "mix"))
            det_wires = tuple(wid(loc, ch) for loc in blk.tap_locs
                              for ch in chans[loc])
            blk.pre_mix_wires = det_wires
        groups.append(DetectorGroup(dot, det_wires, 1))

    outputs = [wid(label, ch) for label in mains for ch in ("H", "V")]
    return Circuit(wires, elements, groups, outputs, list(mains),
                   POLARIZATION, name=g.name or "circuit",
                   layout=Layout(loc_wires, low_locs, port_locs, blocks))


# ---------------------------------------------------------------------------
# Dual-rail encoding
# ---------------------------------------------------------------------------

_RAIL = {"H": "0", "V": "1"}


def to_dual_rail(c: Circuit) -> Circuit:
    """Re-encode a polarization circuit over two spatial rails per location.

    Each element is lowered by :func:`circuit.dual_rail_element`: a PBS
    becomes a rail swap, a wave plate a balanced beam splitter across the
    two rails.  Wire ids are preserved, so outcome statistics are identical
    by construction.
    """
    if c.encoding != POLARIZATION:
        raise ValueError("circuit is already dual-rail encoded")
    wires = [Wire(w.id, w.mode, _RAIL[w.channel]) for w in c.wires]
    return Circuit(wires, [dual_rail_element(el) for el in c.elements],
                   list(c.detector_groups), list(c.outputs), list(c.output_modes),
                   DUAL_RAIL, name=c.name, layout=c.layout)
