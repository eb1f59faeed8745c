"""Hand-derived staged expectations for the three preset pipelines.

For each scheme the propagated state is pinned after photon-pair
preparation, the polarization split, wire routing, the subtractor tap-off
(returns merged), and the pre-mixer heralding filter.  Expectations are
creation polynomials over the compiled layout, exposing every coefficient
the interference depends on.  Each scheme is compiled and propagated once
per test session; every stage test reads the memoized states.
"""

from __future__ import annotations

import functools
import math

from helpers import Poly, apply, mono, poly_add, poly_mul, poly_prod, poly_scale, poly_state, sq
from sculpt import fock
from sculpt.bigraph import SculptingBigraph, ghz, type5, w
from sculpt.circuit import STAGES
from sculpt.compiler import compile_graph
from sculpt.fock import FockState

R2 = 1.0 / math.sqrt(2.0)

STAGE_NAMES = ("prep", "split", "route", "merge", "filtered")


def pair_poly(L, label: str, lower: str | None = None) -> Poly:
    """(a†²_H - a†²_V)/2 for one photon pair, V part optionally relocated."""
    h = L.wire(label, "H")
    v = L.wire(lower or label, "V")
    return poly_add(mono(h, h, coeff=0.5), mono(v, v, coeff=-0.5))


def diag_poly(L, loc: str, coeff: complex = 1.0) -> Poly:
    return poly_add(mono(L.wire(loc, "H"), coeff=coeff * R2),
                    mono(L.wire(loc, "V"), coeff=coeff * R2))


def blue_block_leg(L, g: SculptingBigraph, mode: str):
    edge = next(e for e in g.edges if e.mode == mode and e.state.name == "-")
    blk = L.blocks[edge.dot]
    return blk, next(l for l in blk.main_legs if l.circle == mode and l.color == "-")


def red_block_leg(L, g: SculptingBigraph, mode: str):
    edge = next(e for e in g.edges if e.mode == mode and e.state.name == "+")
    blk = L.blocks[edge.dot]
    return blk, next(l for l in blk.main_legs if l.circle == mode and l.color == "+")


def anc_leg_of(L, dot: int, circle: str):
    return next(l for l in L.blocks[dot].anc_legs if l.circle == circle)


@functools.cache
def setup(kind: str, n: int):
    g = {"ghz": ghz, "w": w}.get(kind, lambda _n: type5())(n)
    c = compile_graph(g)
    return g, c, c.layout


# ---------------------------------------------------------------------------
# Ring scheme (GHZ)
# ---------------------------------------------------------------------------

def ghz_expectation(g, c, L, stage: str) -> Poly:
    n = g.n_main
    mains = g.main_labels()
    if stage == "prep":
        return poly_prod([pair_poly(L, m) for m in mains])
    if stage == "split":
        return poly_prod([pair_poly(L, m, L.low_locs[m]) for m in mains])
    if stage == "route":
        return poly_prod([pair_poly(L, m, blue_block_leg(L, g, m)[1].leg_loc)
                          for m in mains])
    if stage == "merge":
        # per source mode: bunch went into its plus-edge block (photons on
        # the mode location and that block's lower leg) or its minus-edge
        # block (that leg and the block's anchor, minus sign on the V image)
        factors = []
        for m in mains:
            red_blk, _ = red_block_leg(L, g, m)
            blue_blk, blue_leg = blue_block_leg(L, g, m)
            up = sq([(L.wire(m, "H"), 1.0),
                     (L.wire(red_blk.main_legs[1].leg_loc, "V"), 1.0)])
            lo = sq([(L.wire(blue_leg.leg_loc, "H"), 1.0),
                     (L.wire(blue_blk.main_legs[0].leg_loc, "V"), -1.0)])
            factors.append(poly_scale(poly_add(up, poly_scale(lo, -1.0)), 0.25))
        return poly_prod(factors)
    if stage == "filtered":
        fam1, fam2 = [], []
        for dot in g.dot_ids():
            red, blue = L.blocks[dot].main_legs
            t, b = red.leg_loc, blue.leg_loc
            fam1.append(mono(L.wire(t, "H"), L.wire(b, "V")))
            fam2.append(mono(L.wire(b, "H"), L.wire(t, "V")))
        return poly_scale(poly_add(poly_prod(fam1), poly_prod(fam2)), 1.0 / 2 ** n)
    raise KeyError(stage)


# ---------------------------------------------------------------------------
# Single-ancilla scheme (W)
# ---------------------------------------------------------------------------

def w_expectation(g, c, L, stage: str) -> Poly:
    n = g.n_main
    mains = g.main_labels()
    rn = 1.0 / math.sqrt(n)
    if stage == "prep":
        return poly_mul(poly_prod([pair_poly(L, m) for m in mains]),
                        diag_poly(L, "X"))
    if stage == "split":
        pairs = poly_prod([pair_poly(L, m, L.low_locs[m]) for m in mains])
        return poly_mul(pairs, poly_add(*[diag_poly(L, loc, rn)
                                          for loc in L.port_locs["X"]]))
    if stage == "route":
        pairs = poly_prod([pair_poly(L, m, blue_block_leg(L, g, m)[1].leg_loc)
                           for m in mains])
        fan = poly_add(*[diag_poly(L, anc_leg_of(L, k, "X").leg_loc, rn)
                         for k in range(1, n + 1)])
        return poly_mul(pairs, fan)
    if stage == "merge":
        factors = []
        for m in mains:
            _, red = red_block_leg(L, g, m)
            _, blue = blue_block_leg(L, g, m)
            up = sq([(L.wire(m, "H"), 1.0), (L.wire(red.tap_loc, "V"), 1.0)])
            lo = sq([(L.wire(blue.tap_loc, "H"), 1.0), (L.wire(m, "V"), -1.0)])
            factors.append(poly_scale(poly_add(up, poly_scale(lo, -1.0)), 0.25))
        fan = poly_add(*[mono(L.wire(anc_leg_of(L, k, "X").leg_loc, "V"), coeff=rn)
                         for k in range(1, n + 1)])
        return poly_mul(poly_prod(factors), fan)
    if stage == "filtered":
        terms = []
        for k in range(1, n + 1):
            photons = [mono(L.wire(anc_leg_of(L, k, "X").leg_loc, "V")),
                       mono(L.wire(blue_block_leg(L, g, str(k))[1].tap_loc, "H")),
                       mono(L.wire(str(k), "V"))]
            for j in range(1, n + 1):
                if j != k:
                    photons.append(mono(L.wire(str(j), "H")))
                    photons.append(mono(L.wire(red_block_leg(L, g, str(j))[1].tap_loc, "V")))
            terms.append(poly_prod(photons))
        return poly_scale(poly_add(*terms), 1.0 / (2 ** n * math.sqrt(n)))
    raise KeyError(stage)


# ---------------------------------------------------------------------------
# Three-ancilla scheme (GHZ/W superposition)
# ---------------------------------------------------------------------------

ANC_PORT_FAN = {"X": 1.0 / math.sqrt(2), "Y": 1.0 / math.sqrt(3),
                "Z": 1.0 / math.sqrt(3)}
# unique ancilla-consumption assignment per surviving output string
TYPE5_ASSIGNMENTS = {
    (0, 0, 0): {"X": 5, "Y": 6, "Z": 4},
    (1, 0, 0): {"X": 1, "Y": 5, "Z": 6},
    (1, 0, 1): {"X": 1, "Y": 5, "Z": 3},
    (1, 1, 0): {"X": 1, "Y": 2, "Z": 6},
    (1, 1, 1): {"X": 1, "Y": 2, "Z": 3},
}


def type5_expectation(g, c, L, stage: str) -> Poly:
    mains = ("1", "2", "3")
    ancs = ("X", "Y", "Z")
    if stage == "prep":
        return poly_prod([pair_poly(L, m) for m in mains]
                         + [diag_poly(L, a) for a in ancs])
    if stage == "split":
        pairs = [pair_poly(L, m, L.low_locs[m]) for m in mains]
        fans = [poly_add(*[diag_poly(L, loc, ANC_PORT_FAN[a])
                           for loc in L.port_locs[a]]) for a in ancs]
        return poly_prod(pairs + fans)
    if stage == "route":
        pairs = [pair_poly(L, m, blue_block_leg(L, g, m)[1].leg_loc) for m in mains]
        fans = []
        for a in ancs:
            dots = sorted(e.dot for e in g.edges_of_circle(a))
            fans.append(poly_add(*[diag_poly(L, anc_leg_of(L, d, a).leg_loc,
                                             ANC_PORT_FAN[a]) for d in dots]))
        return poly_prod(pairs + fans)
    if stage == "merge":
        pairs = []
        for m in mains:
            _, red = red_block_leg(L, g, m)
            _, blue = blue_block_leg(L, g, m)
            up = sq([(L.wire(m, "H"), 1.0), (L.wire(red.tap_loc, "V"), 1.0)])
            lo = sq([(L.wire(blue.tap_loc, "H"), 1.0), (L.wire(m, "V"), -1.0)])
            pairs.append(poly_scale(poly_add(up, poly_scale(lo, -1.0)), 0.25))
        fans = []
        for a in ancs:
            dots = sorted(e.dot for e in g.edges_of_circle(a))
            legs = []
            for d in dots:
                leg = anc_leg_of(L, d, a)
                legs.append(mono(L.wire(leg.leg_loc, leg.channels[0]),
                                 coeff=ANC_PORT_FAN[a]))
            fans.append(poly_add(*legs))
        return poly_prod(pairs + fans)
    if stage == "filtered":
        terms = []
        for bits, anc_at in TYPE5_ASSIGNMENTS.items():
            photons = []
            for j, b in enumerate(bits, start=1):
                m = str(j)
                if b == 0:
                    photons.append(mono(L.wire(m, "H")))
                    photons.append(mono(L.wire(red_block_leg(L, g, m)[1].tap_loc, "V")))
                else:
                    photons.append(mono(L.wire(m, "V")))
                    photons.append(mono(L.wire(blue_block_leg(L, g, m)[1].tap_loc, "H")))
            for a, d in anc_at.items():
                leg = anc_leg_of(L, d, a)
                photons.append(mono(L.wire(leg.leg_loc, leg.channels[0])))
            terms.append(poly_prod(photons))
        return poly_scale(poly_add(*terms), 1.0 / (24.0 * math.sqrt(2.0)))
    raise KeyError(stage)


EXPECTATIONS = {"ghz": ghz_expectation, "w": w_expectation, "type5": type5_expectation}


@functools.cache
def stage_states(kind: str, n: int) -> dict[str, FockState]:
    """The state after each pipeline stage, from one propagation of the
    sources, plus "filtered": the post-merge state with the heralding filter
    applied before the which-path mixers (the component whose pre-mix tap
    wires hold exactly the required photon count per subtractor,
    unnormalized)."""
    _, c, L = setup(kind, n)
    order = [STAGES.index(el.stage) for el in c.elements]
    assert order == sorted(order), "elements are not in pipeline stage order"
    states = {}
    state = FockState.vacuum()
    for stage in STAGES:
        for el in c.elements:
            if el.stage == stage:
                state = apply(state, el)
        states[stage] = state
    state = states["merge"]
    for grp in c.detector_groups:
        state, _ = fock.project_count(state, L.blocks[grp.gid].pre_mix_wires, grp.required)
    states["filtered"] = state
    return states


def assert_stage(kind: str, n: int, stage: str) -> None:
    g, c, L = setup(kind, n)
    expected = poly_state(EXPECTATIONS[kind](g, c, L, stage))
    assert fock.allclose(stage_states(kind, n)[stage], expected), \
        f"{kind}: stage {stage!r} differs"


def assert_scheme_goldens(kind: str, n: int) -> None:
    for stage in STAGE_NAMES:
        assert_stage(kind, n, stage)
