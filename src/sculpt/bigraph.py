"""Sculpting directed bigraphs: data model, validation and presets.

A sculpting bigraph has labelled circles (spatial modes, main or ancillary),
unlabelled dots (one single-boson subtraction operator each) and directed
weighted edges circle -> dot.  Each edge carries a complex probability
amplitude and a normalized two-level internal state; per dot the squared
amplitudes sum to one.  That invariant is checked once, when a
:class:`SculptingBigraph` is built, so every graph that exists holds it.

The "effective perfect matching" (EPM) class is the subset whose heralded
output is fully determined by the graph's perfect matchings; the three
built-in presets (GHZ, W, and the three-party GHZ/W superposition) are all
EPM.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass
from enum import Enum

from .fock import ATOL


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InternalState:
    """Normalized internal (two-level) state alpha|0> + beta|1>."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(n - 1.0) <= ATOL:  # also rejects nan
            raise ValueError(f"internal state not normalized: |a|^2+|b|^2 = {n}")

    @staticmethod
    def zero() -> "InternalState":
        return _NAMED_STATES["0"]

    @staticmethod
    def plus() -> "InternalState":
        return _NAMED_STATES["+"]

    @staticmethod
    def minus() -> "InternalState":
        return _NAMED_STATES["-"]

    @staticmethod
    def named(name: str) -> "InternalState":
        try:
            return _NAMED_STATES[name]
        except KeyError:
            raise ValueError(f"unknown internal state name {name!r}") from None

    def isclose(self, other: "InternalState", atol: float = ATOL) -> bool:
        return (abs(self.alpha - other.alpha) <= atol
                and abs(self.beta - other.beta) <= atol)

    @property
    def name(self) -> str:
        """The named state this one is, or lies within ``ATOL`` of, else
        "custom"."""
        for name, state in _NAMED_STATES.items():
            if self is state:
                return name
        for name, state in _NAMED_STATES.items():
            if self.isclose(state):
                return name
        return "custom"

    def annihilation_coeffs(self) -> tuple[complex, complex]:
        """Coefficients (c0, c1) with a_psi = c0 a_0 + c1 a_1."""
        return (complex(self.alpha).conjugate(), complex(self.beta).conjugate())


# The four named states, built and validated once; the static constructors
# return these instances.
_NAMED_STATES = {
    "0": InternalState(1.0, 0.0),
    "1": InternalState(0.0, 1.0),
    "+": InternalState(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    "-": InternalState(1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)),
}


class CircleKind(Enum):
    MAIN = "main"
    ANCILLA = "ancilla"


@dataclass(frozen=True)
class Circle:
    label: str
    kind: CircleKind


@dataclass(frozen=True)
class Edge:
    """Directed edge circle -> dot with amplitude weight and internal state."""

    mode: str
    dot: int
    amplitude: complex
    state: InternalState


class EpmPattern(Enum):
    A = "A"          # main circle: one |+> edge and one |-> edge to distinct dots
    B = "B"          # ancilla circle: all-|0> edges to distinct dots
    NON_EPM = "non-EPM"


@dataclass(frozen=True)
class SculptingBigraph:
    """Circles + dots + directed edges; the compiler/oracle input IR.

    Construction checks that circle labels are unique, that every edge
    names a known circle and that each dot's squared leg amplitudes sum to
    one within ``ATOL`` (nan fails), and raises ``ValueError`` otherwise;
    this is the only place the per-dot normalization is checked.

    Each view of the graph (its main labels, circles, dots, and edges by dot
    and by circle) is derived on first use and kept; the graph is frozen, so
    a view cannot go stale.  The methods return fresh lists."""

    n_main: int
    ancillas: tuple[str, ...]
    edges: tuple[Edge, ...]
    name: str = ""

    def __post_init__(self) -> None:
        labels = self._main_labels + tuple(self.ancillas)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate circle labels")
        known = set(labels)
        totals: dict[int, float] = {}
        for e in self.edges:
            if e.mode not in known:
                raise ValueError(f"edge references unknown circle {e.mode!r}")
            totals[e.dot] = totals.get(e.dot, 0.0) + abs(e.amplitude) ** 2
        for dot, total in totals.items():
            if not abs(total - 1.0) <= ATOL:  # also rejects nan
                raise ValueError(f"dot {dot}: per-dot normalization violated "
                                 f"(sum |amp|^2 = {total:.12g})")

    @functools.cached_property
    def _main_labels(self) -> tuple[str, ...]:
        return tuple([str(j) for j in range(1, self.n_main + 1)])

    @functools.cached_property
    def _circles(self) -> dict[str, Circle]:
        """Label -> circle, main circles first."""
        return {**{l: Circle(l, CircleKind.MAIN) for l in self._main_labels},
                **{l: Circle(l, CircleKind.ANCILLA) for l in self.ancillas}}

    @functools.cached_property
    def _edges_by_dot(self) -> dict[int, tuple[Edge, ...]]:
        """Dot id -> its edges in edge order, by increasing dot id."""
        by_dot: dict[int, list[Edge]] = {}
        for e in self.edges:
            by_dot.setdefault(e.dot, []).append(e)
        return {dot: tuple(by_dot[dot]) for dot in sorted(by_dot)}

    @functools.cached_property
    def _edges_by_circle(self) -> dict[str, tuple[Edge, ...]]:
        """Circle label -> its edges in edge order."""
        by_circle: dict[str, list[Edge]] = {}
        for e in self.edges:
            by_circle.setdefault(e.mode, []).append(e)
        return {label: tuple(edges) for label, edges in by_circle.items()}

    def main_labels(self) -> list[str]:
        return list(self._main_labels)

    def circle(self, label: str) -> Circle:
        try:
            return self._circles[label]
        except KeyError:
            raise KeyError(f"unknown circle {label!r}") from None

    def circles(self) -> list[Circle]:
        return list(self._circles.values())

    def dot_ids(self) -> list[int]:
        return list(self._edges_by_dot)

    def edges_of_circle(self, label: str) -> list[Edge]:
        return list(self._edges_by_circle.get(label, ()))

    def edges_of_dot(self, dot: int) -> list[Edge]:
        return list(self._edges_by_dot.get(dot, ()))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def classify_circle(g: SculptingBigraph, label: str) -> EpmPattern:
    """Classify one circle against the allowed EPM edge patterns.

    Main circles match pattern A when they emit exactly one |+> and one |->
    edge to two distinct dots (amplitudes free).  Ancilla circles match
    pattern B when all their edges carry |0> and target pairwise-distinct
    dots.  Everything else is non-EPM.
    """
    circle = g.circle(label)  # raises KeyError for unknown circles
    edges = g.edges_of_circle(label)
    if circle.kind is CircleKind.MAIN:
        if len(edges) != 2:
            return EpmPattern.NON_EPM
        names = sorted(e.state.name for e in edges)
        if names != ["+", "-"] or edges[0].dot == edges[1].dot:
            return EpmPattern.NON_EPM
        return EpmPattern.A
    if not edges:
        return EpmPattern.NON_EPM
    if any(e.state.name != "0" for e in edges):
        return EpmPattern.NON_EPM
    dots = [e.dot for e in edges]
    if len(set(dots)) != len(dots):
        return EpmPattern.NON_EPM
    return EpmPattern.B


def non_epm_circles(g: SculptingBigraph) -> list[str]:
    return [c.label for c in g.circles()
            if classify_circle(g, c.label) is EpmPattern.NON_EPM]


def is_epm(g: SculptingBigraph) -> bool:
    """True iff every circle classifies as pattern A or B.

    The empty graph is vacuously EPM."""
    return not non_epm_circles(g)


# ---------------------------------------------------------------------------
# Perfect matchings
# ---------------------------------------------------------------------------

def perfect_matchings(g: SculptingBigraph) -> list[tuple[int, ...]]:
    """All disjoint edge sets covering every dot and every circle exactly once.

    Returned as tuples of edge indices into ``g.edges``, in deterministic
    order (dots visited by id, candidate edges by circle label).
    """
    dots = g.dot_ids()
    all_labels = set(g.main_labels()) | set(g.ancillas)
    if len(dots) != len(all_labels):
        return []
    by_dot: dict[int, list[int]] = {d: [] for d in dots}
    for idx, e in enumerate(g.edges):
        by_dot[e.dot].append(idx)
    for d in dots:
        by_dot[d].sort(key=lambda i: g.edges[i].mode)

    results: list[tuple[int, ...]] = []
    chosen: list[int] = []
    used: set[str] = set()

    def extend(i: int) -> None:
        if i == len(dots):
            results.append(tuple(chosen))
            return
        for idx in by_dot[dots[i]]:
            mode = g.edges[idx].mode
            if mode in used:
                continue
            used.add(mode)
            chosen.append(idx)
            extend(i + 1)
            chosen.pop()
            used.remove(mode)

    extend(0)
    return results


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)


def ghz(n: int) -> SculptingBigraph:
    """Ring graph sculpting the n-party GHZ state with 2n photons.

    Dot j takes a |+> leg from mode j and a |-> leg (amplitude -1/sqrt 2)
    from mode j+1 (cyclic), so its operator is (a_{j,+} - a_{j+1,-})/sqrt(2).
    """
    if n < 2:
        raise ValueError("GHZ preset needs n >= 2")
    edges = []
    for j in range(1, n + 1):
        nxt = j % n + 1
        edges.append(Edge(str(j), j, _SQ2, InternalState.plus()))
        edges.append(Edge(str(nxt), j, -_SQ2, InternalState.minus()))
    return SculptingBigraph(n, (), tuple(edges), name=f"ghz{n}")


def w(n: int) -> SculptingBigraph:
    """Graph sculpting the n-party W state with 2n+1 photons (one ancilla X).

    Dots 1..n implement (a_{j,+} + a_{X,0})/sqrt(2); the final dot spreads a
    |-> subtraction uniformly over all main modes.
    """
    if n < 2:
        raise ValueError("W preset needs n >= 2")
    edges = []
    for j in range(1, n + 1):
        edges.append(Edge(str(j), j, _SQ2, InternalState.plus()))
        edges.append(Edge("X", j, _SQ2, InternalState.zero()))
    rn = 1.0 / math.sqrt(n)
    for k in range(1, n + 1):
        edges.append(Edge(str(k), n + 1, rn, InternalState.minus()))
    return SculptingBigraph(n, ("X",), tuple(edges), name=f"w{n}")


def type5() -> SculptingBigraph:
    """Graph sculpting the three-party GHZ/W superposition with 9 photons.

    Spatial modes {1,2,3,X,Y,Z}; the six dots implement
    (a_{1+}+a_{X0})/r2, (a_{2+}+a_{Y0})/r2, (a_{3+}+a_{Z0})/r2,
    (a_{Z0}-a_{1-})/r2, (a_{X0}+a_{Y0}-a_{2-})/r3, (a_{Y0}+a_{Z0}-a_{3-})/r3.
    """
    r3 = 1.0 / math.sqrt(3.0)
    z = InternalState.zero
    edges = [
        Edge("1", 1, _SQ2, InternalState.plus()),
        Edge("X", 1, _SQ2, z()),
        Edge("2", 2, _SQ2, InternalState.plus()),
        Edge("Y", 2, _SQ2, z()),
        Edge("3", 3, _SQ2, InternalState.plus()),
        Edge("Z", 3, _SQ2, z()),
        Edge("Z", 4, _SQ2, z()),
        Edge("1", 4, -_SQ2, InternalState.minus()),
        Edge("X", 5, r3, z()),
        Edge("Y", 5, r3, z()),
        Edge("2", 5, -r3, InternalState.minus()),
        Edge("Y", 6, r3, z()),
        Edge("Z", 6, r3, z()),
        Edge("3", 6, -r3, InternalState.minus()),
    ]
    return SculptingBigraph(3, ("X", "Y", "Z"), tuple(edges), name="type5")


def preset(kind: str, n: int | None = None) -> SculptingBigraph:
    kind = kind.lower()
    if kind == "ghz":
        return ghz(n if n is not None else 3)
    if kind == "w":
        return w(n if n is not None else 3)
    if kind == "type5":
        if n not in (None, 3):
            raise ValueError("the type5 preset is defined for n = 3 only")
        return type5()
    raise ValueError(f"unknown preset kind {kind!r}")


def random_epm(rng, n_main: int, n_ancilla: int,
               realizable: bool = False) -> SculptingBigraph:
    """Random EPM graph: pattern-A main circles, pattern-B ancillas, each
    ancilla with 1-3 edges.

    By default per-dot amplitudes are random complex numbers normalized to
    sum |amp|^2 = 1.  With ``realizable=True`` every dot gets the hardware
    sign pattern instead (equal magnitudes, minus on |-> legs), which is the
    family the circuit compiler accepts.  Resamples until every dot has at
    least one edge.
    """
    n_dots = n_main + n_ancilla
    anc_labels = [chr(ord("A") + i) for i in range(n_ancilla)]
    for _ in range(1000):
        raw: list[tuple[str, int, InternalState]] = []
        for j in range(1, n_main + 1):
            d_plus, d_minus = rng.choice(n_dots, size=2, replace=False) + 1
            raw.append((str(j), int(d_plus), InternalState.plus()))
            raw.append((str(j), int(d_minus), InternalState.minus()))
        for a in anc_labels:
            deg = min(int(rng.integers(1, 4)), n_dots)
            targets = rng.choice(n_dots, size=deg, replace=False) + 1
            for d in targets:
                raw.append((a, int(d), InternalState.zero()))
        touched = {d for _, d, _ in raw}
        if len(touched) == n_dots:
            break
    else:  # pragma: no cover - astronomically unlikely
        raise RuntimeError("failed to sample a covering EPM graph")

    by_dot: dict[int, list[int]] = {}
    for i, (_, d, _) in enumerate(raw):
        by_dot.setdefault(d, []).append(i)
    amps = [0j] * len(raw)
    for d, idxs in by_dot.items():
        if realizable:
            mag = 1.0 / math.sqrt(len(idxs))
            for i in idxs:
                sign = -1.0 if raw[i][2].name == "-" else 1.0
                amps[i] = sign * mag
        else:
            zs = rng.normal(size=len(idxs)) + 1j * rng.normal(size=len(idxs))
            zs /= math.sqrt(float(sum(abs(z) ** 2 for z in zs)))
            for i, z in zip(idxs, zs):
                amps[i] = complex(z)
    edges = tuple(Edge(m, d, amps[i], s) for i, (m, d, s) in enumerate(raw))
    return SculptingBigraph(n_main, tuple(anc_labels), edges, name="random")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class GraphSchemaError(ValueError):
    """Raised on malformed graph JSON, with a field path in the message."""


def _leg_to_json(e: Edge) -> dict:
    leg: dict = {"mode": e.mode, "state": e.state.name,
                 "amplitude": [e.amplitude.real, e.amplitude.imag]}
    if leg["state"] == "custom":
        leg["alpha"] = [e.state.alpha.real, e.state.alpha.imag]
        leg["beta"] = [e.state.beta.real, e.state.beta.imag]
    return leg


def serialize_graph(g: SculptingBigraph) -> str:
    dots = []
    for dot in g.dot_ids():
        legs = [_leg_to_json(e) for e in g.edges_of_dot(dot)]
        dots.append({"id": dot, "legs": legs})
    doc = {"n_main": g.n_main, "ancillas": list(g.ancillas), "dots": dots}
    if g.name:
        doc["name"] = g.name
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, float) or _is_int(x)


def _complex_field(obj, key: str, where: str) -> complex:
    val = obj.get(key)
    if not isinstance(val, (list, tuple)) or len(val) != 2 or not all(map(_is_real, val)):
        raise GraphSchemaError(f"{where}.{key}: expected [re, im]")
    return complex(val[0], val[1])


def parse_graph(text: str) -> SculptingBigraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphSchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphSchemaError("top level: expected an object")
    n_main = doc.get("n_main")
    if not _is_int(n_main) or n_main < 0:
        raise GraphSchemaError("n_main: expected a non-negative integer")
    ancillas = doc.get("ancillas", [])
    if not isinstance(ancillas, list) or not all(isinstance(a, str) for a in ancillas):
        raise GraphSchemaError("ancillas: expected a list of labels")
    dots = doc.get("dots")
    if not isinstance(dots, list):
        raise GraphSchemaError("dots: expected a list")
    edges: list[Edge] = []
    ids: set[int] = set()
    for i, dot in enumerate(dots):
        where = f"dots[{i}]"
        if not isinstance(dot, dict) or not _is_int(dot.get("id")):
            raise GraphSchemaError(f"{where}: expected an object with integer id")
        if dot["id"] in ids:
            raise GraphSchemaError(f"{where}.id: dot {dot['id']} is declared twice")
        ids.add(dot["id"])
        legs = dot.get("legs")
        if not isinstance(legs, list) or not legs:
            raise GraphSchemaError(f"{where}.legs: expected a non-empty list")
        for k, leg in enumerate(legs):
            lwhere = f"{where}.legs[{k}]"
            if not isinstance(leg, dict) or not isinstance(leg.get("mode"), str):
                raise GraphSchemaError(f"{lwhere}: expected an object with a mode label")
            sname = leg.get("state")
            if isinstance(sname, str) and sname in _NAMED_STATES:
                state = InternalState.named(sname)
            elif sname == "custom":
                state = InternalState(_complex_field(leg, "alpha", lwhere),
                                      _complex_field(leg, "beta", lwhere))
            else:
                raise GraphSchemaError(f"{lwhere}.state: expected one of 0/1/+/-/custom")
            amp = _complex_field(leg, "amplitude", lwhere)
            if "phase" in leg:
                ph = leg["phase"]
                if not _is_real(ph):
                    raise GraphSchemaError(f"{lwhere}.phase: expected radians")
                amp *= cmath.exp(1j * ph)
            edges.append(Edge(leg["mode"], dot["id"], amp, state))
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise GraphSchemaError("name: expected a string")
    try:
        return SculptingBigraph(n_main, tuple(ancillas), tuple(edges), name=name)
    except ValueError as exc:  # bad circle labels or an unnormalized dot
        raise GraphSchemaError(str(exc)) from None


_DOT_COLORS = {"0": "black", "1": "gray40", "+": "red", "-": "blue", "custom": "purple"}
_DOT_STYLES = {"0": "solid", "1": "dotted", "+": "solid", "-": "solid", "custom": "dashed"}


def graph_to_dot(g: SculptingBigraph) -> str:
    """Graphviz export: circles as labelled ellipses, dots as points."""
    def quote(text: str) -> str:  # a DOT string: JSON's escapes of \ and "
        return json.dumps(text, ensure_ascii=False)

    lines = ["digraph sculpting {"]
    lines.append("  rankdir=LR;")
    for label in g.main_labels():
        lines.append(f'  {quote("c" + label)} [label={quote(label)}, shape=ellipse];')
    for label in g.ancillas:
        lines.append(f'  {quote("c" + label)} [label={quote(label)}, shape=ellipse, '
                     f'style=dashed];')
    for d in g.dot_ids():
        lines.append(f'  "d{d}" [label="", shape=point, width=0.12];')
    for e in g.edges:
        color = _DOT_COLORS[e.state.name]
        style = _DOT_STYLES[e.state.name]
        lines.append(f'  {quote("c" + e.mode)} -> "d{e.dot}" [color={color}, style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
