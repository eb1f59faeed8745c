"""Linear-optical circuit IR: wires, elements, validation, JSON and DOT.

A wire is one bosonic channel.  In polarization encoding every location
(spatial path) owns an H wire and a V wire; in dual-rail encoding the two
channels are the rails "0" and "1".  Elements are kept in application order;
detector groups are terminal markers listed separately, one per subtractor.

Element semantics (applied by :mod:`sculpt.sim`):
    * ``Multiport`` n-port Fourier mixer U_jk = exp(2*pi*i*j*k/n)/sqrt(n),
      applied channel-wise to its port groups; a 2-port is a balanced BS
    * ``Swap``      wire permutation
    * ``HWP``, ``UHWP`` and ``PBS`` lower to these in either encoding (see
      :func:`dual_rail_element`): a wave plate is the balanced BS across
      its mode's two wires, a†_H -> (a†_H + a†_V)/r2, a†_V -> (a†_H - a†_V)/r2,
      the rotated plate the same BS with its ports in the order V, H; a PBS
      transmits H and swaps the two V wires, with no reflection phase, and
      also puts a general subtractor's surviving photon back on its mode

Each element's JSON object is its kind plus its dataclass fields.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import MISSING, dataclass, field, fields

POLARIZATION = "polarization"
DUAL_RAIL = "dual-rail"

STAGES = ("source", "prep", "split", "route", "subtract", "merge", "mix")


@dataclass(frozen=True)
class Wire:
    id: int
    mode: str
    channel: str


@dataclass(frozen=True)
class Source:
    wire: int
    photons: int
    stage: str = "source"
    kind = "source"

    def wires_used(self) -> tuple[int, ...]:
        return (self.wire,)


@dataclass(frozen=True)
class HWP:
    mode: str
    h: int
    v: int
    stage: str = "prep"
    kind = "hwp"

    def wires_used(self) -> tuple[int, ...]:
        return (self.h, self.v)

    @property
    def ports(self) -> tuple[tuple[int, ...], ...]:
        """The balanced beam splitter it lowers to: H, then V."""
        return ((self.h,), (self.v,))


@dataclass(frozen=True)
class UHWP:
    """Half-wave plate rotated to exchange {H,V} with {A,D}."""

    mode: str
    h: int
    v: int
    stage: str = "subtract"
    kind = "uhwp"

    def wires_used(self) -> tuple[int, ...]:
        return (self.h, self.v)

    @property
    def ports(self) -> tuple[tuple[int, ...], ...]:
        """The balanced beam splitter it lowers to: V, then H."""
        return ((self.v,), (self.h,))


@dataclass(frozen=True)
class PBS:
    mode_a: str
    mode_b: str
    a_h: int
    a_v: int
    b_h: int
    b_v: int
    stage: str = "split"
    kind = "pbs"

    def wires_used(self) -> tuple[int, ...]:
        return (self.a_h, self.a_v, self.b_h, self.b_v)

    @property
    def mapping(self) -> tuple[tuple[int, int], ...]:
        """The swap it lowers to: its two V wires trade places."""
        return ((self.a_v, self.b_v), (self.b_v, self.a_v))


@dataclass(frozen=True)
class Multiport:
    """Fourier mixer over n port groups; each group lists one wire per
    channel, and the same n x n unitary acts on every channel slot."""

    ports: tuple[tuple[int, ...], ...]
    stage: str = "mix"

    @property
    def n(self) -> int:
        return len(self.ports)

    @property
    def kind(self) -> str:
        return "bs" if self.n == 2 else "multiport"

    def wires_used(self) -> tuple[int, ...]:
        return tuple(w for grp in self.ports for w in grp)


_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, 0 - 1j)


@functools.lru_cache(maxsize=None)
def fourier(n: int) -> tuple[tuple[complex, ...], ...]:
    """The unitary an n-port :class:`Multiport` applies: U_jk =
    w^(jk mod n)/sqrt(n), w = exp(2*pi*i/n); a power of w at a quarter turn
    is exact (1, i, -1 or -i), so a 2-port's entries are exactly
    +-1/sqrt(2)."""
    def power(m: int) -> complex:
        if 4 * m % n:
            return cmath.exp(2j * math.pi * m / n)
        return _QUARTER_TURNS[4 * m // n]

    return tuple(tuple(power(j * k % n) / math.sqrt(n) for j in range(n))
                 for k in range(n))


@dataclass(frozen=True)
class Swap:
    """Wire permutation, stored as a full mapping (src -> dst)."""

    mapping: tuple[tuple[int, int], ...]
    stage: str = "route"
    kind = "swap"

    def wires_used(self) -> tuple[int, ...]:
        return tuple(sorted({w for pair in self.mapping for w in pair}))


Element = Source | HWP | UHWP | PBS | Multiport | Swap


def dual_rail_element(el: Element) -> Element:
    """The element as it acts on its wires in either encoding: a wave plate
    becomes the balanced beam splitter on its ``ports``, and a PBS the swap
    of its ``mapping``.  Every other element is returned as is; each keeps
    its stage."""
    if isinstance(el, (HWP, UHWP)):
        return Multiport(el.ports, el.stage)
    if isinstance(el, PBS):
        return Swap(el.mapping, el.stage)
    return el


@dataclass(frozen=True)
class DetectorGroup:
    gid: int
    wires: tuple[int, ...]
    required: int


@dataclass
class Circuit:
    wires: list[Wire]
    elements: list[Element]
    detector_groups: list[DetectorGroup]
    outputs: list[int]
    output_modes: list[str]
    encoding: str = POLARIZATION
    name: str = ""
    layout: object | None = field(default=None, compare=False, repr=False)

    def wire_ids(self) -> set[int]:
        return {w.id for w in self.wires}

    def mode_wires(self, mode: str) -> dict[str, int]:
        return {w.channel: w.id for w in self.wires if w.mode == mode}

    def detector_wires(self) -> set[int]:
        return {w for grp in self.detector_groups for w in grp.wires}


def validate(c: Circuit) -> list[str]:
    """Structural diagnostics; an empty list means the invariants hold."""
    diags: list[str] = []
    ids = c.wire_ids()
    if sorted(ids) != list(range(len(c.wires))):
        diags.append("wire ids are not dense 0..n-1")
    for i, el in enumerate(c.elements):
        flat = el.wires_used()
        for w in flat:
            if w not in ids:
                diags.append(f"element {i} ({el.kind}) consumes undeclared wire {w}")
        # An element naming one wire twice is not unitary: a wave plate's
        # two rules collapse into one, which can zero the state.
        if len(set(flat)) != len(flat):
            diags.append(f"element {i} ({el.kind}) repeats a wire")
        if el.kind == "source" and (not isinstance(el.photons, int)
                                    or isinstance(el.photons, bool) or el.photons < 0):
            diags.append(f"element {i} (source) photon count {el.photons!r} "
                         f"is not a non-negative integer")
        if el.kind == "swap":
            srcs = [s for s, _ in el.mapping]
            dsts = [d for _, d in el.mapping]
            if len(set(srcs)) != len(srcs) or sorted(srcs) != sorted(dsts):
                diags.append(f"element {i} ({el.kind}) is not a permutation")
        if el.kind in ("bs", "multiport"):
            if el.n < 2:
                diags.append(f"element {i} multiport needs >= 2 ports")
            arities = {len(grp) for grp in el.ports}
            if len(arities) != 1:
                diags.append(f"element {i} multiport has ragged port groups")
    seen: set[int] = set()
    for grp in c.detector_groups:
        for w in grp.wires:
            if w not in ids:
                diags.append(f"detector group {grp.gid} reads undeclared wire {w}")
        if len(set(grp.wires)) != len(grp.wires):
            diags.append(f"detector group {grp.gid} repeats a wire")
        overlap = seen & set(grp.wires)
        if overlap:
            diags.append(f"detector group {grp.gid} overlaps wires {sorted(overlap)}")
        seen |= set(grp.wires)
        if grp.required < 0:
            diags.append(f"detector group {grp.gid} has negative required count")
    out_overlap = set(c.outputs) & seen
    if out_overlap:
        diags.append(f"output wires {sorted(out_overlap)} are also detector wires")
    for w in c.outputs:
        if w not in ids:
            diags.append(f"output wire {w} undeclared")
    for mode in c.output_modes:
        channels = sorted((w.channel for w in c.wires if w.mode == mode), key=str)
        if channels not in (["H", "V"], ["0", "1"]):
            diags.append(f"output mode {mode!r} has channels {channels}, "
                         f"not one H/V or 0/1 pair")
    if c.encoding not in (POLARIZATION, DUAL_RAIL):
        diags.append(f"unknown encoding {c.encoding!r}")
    return diags


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

class CircuitSchemaError(ValueError):
    """Raised on malformed circuit JSON."""


def _element_to_json(el: Element) -> dict:
    kind = el.kind
    return {"kind": kind, **{name: getattr(el, name) for name, _, _ in _SCHEMA[kind][1]}}


def serialize_circuit(c: Circuit) -> str:
    """One line of JSON with sorted keys, so identical circuits give
    identical bytes; without ``indent`` the C encoder writes it."""
    doc = {
        "encoding": c.encoding,
        "name": c.name,
        "wires": [{"id": w.id, "mode": w.mode, "channel": w.channel} for w in c.wires],
        "elements": [_element_to_json(el) for el in c.elements],
        "detector_groups": [{"id": g.gid, "wires": g.wires, "count": g.required}
                            for g in c.detector_groups],
        "outputs": c.outputs,
        "output_modes": c.output_modes,
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def _element_from_json(doc: dict, where: str) -> Element:
    if not isinstance(doc, dict):
        raise CircuitSchemaError(f"{where}: expected an object")
    kind = doc.get("kind")
    if "stage" in doc and doc["stage"] not in STAGES:
        raise CircuitSchemaError(
            f"{where}: stage {doc['stage']!r} is not one of {', '.join(STAGES)}")
    entry = _SCHEMA.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise CircuitSchemaError(f"{where}: unknown element kind {kind!r}")
    cls, table = entry
    try:
        # A missing field with a default (the stage) takes the element's own.
        return cls(**{name: read(doc[name], name) for name, read, required in table
                      if required or name in doc})
    except (KeyError, TypeError, ValueError) as exc:
        raise CircuitSchemaError(f"{where}: malformed {kind} element ({exc})") from None


def _int(value, where: str) -> int:
    # The exact type: JSON true/false load as bool, which subclasses int.
    if type(value) is not int:
        raise CircuitSchemaError(f"{where}: {value!r} is not an integer")
    return value


def _str(value, where: str) -> str:
    if not isinstance(value, str):
        raise CircuitSchemaError(f"{where}: {value!r} is not a string")
    return value


# Element field annotation (a string, under postponed evaluation) -> reader.
_READ = {
    "int": _int,
    "str": _str,
    "tuple[tuple[int, int], ...]":
        lambda pairs, key: tuple([(_int(a, key), _int(b, key)) for a, b in pairs]),
    "tuple[tuple[int, ...], ...]":
        lambda groups, key: tuple([tuple([_int(w, key) for w in grp]) for grp in groups]),
}

# JSON kind -> (element class, its (field, reader, required) triples), read
# from the dataclass fields once; a field with a default (the stage) is not
# required.  A Multiport writes "bs" when it has two ports.
_SCHEMA = {kind: (cls, tuple((f.name, _READ[f.type], f.default is MISSING)
                             for f in fields(cls)))
           for kind, cls in {"source": Source, "hwp": HWP, "uhwp": UHWP, "pbs": PBS,
                             "bs": Multiport, "multiport": Multiport,
                             "swap": Swap}.items()}


def parse_circuit(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitSchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CircuitSchemaError("top level: expected an object")
    try:
        wires = [Wire(_int(w["id"], f"wires[{i}].id"), _str(w["mode"], f"wires[{i}].mode"),
                      _str(w["channel"], f"wires[{i}].channel"))
                 for i, w in enumerate(doc["wires"])]
        elements = [_element_from_json(e, f"elements[{i}]")
                    for i, e in enumerate(doc["elements"])]
        groups = [DetectorGroup(_int(g["id"], f"detector_groups[{i}].id"),
                                tuple(_int(w, f"detector_groups[{i}].wires")
                                      for w in g["wires"]),
                                _int(g["count"], f"detector_groups[{i}].count"))
                  for i, g in enumerate(doc["detector_groups"])]
        modes = doc["output_modes"]
        if not isinstance(modes, list):
            raise CircuitSchemaError(f"output_modes: {modes!r} is not a list")
        c = Circuit(wires, elements, groups,
                    [_int(w, "outputs") for w in doc["outputs"]],
                    [_str(m, "output_modes") for m in modes],
                    doc.get("encoding", POLARIZATION), _str(doc.get("name", ""), "name"))
    except (KeyError, TypeError) as exc:
        raise CircuitSchemaError(f"missing or malformed field: {exc}") from None
    return c


def circuit_to_dot(c: Circuit) -> str:
    """Topology export: one node per element, edges follow each wire."""
    lines = ["digraph circuit {", "  rankdir=LR;", '  node [fontsize=10];']
    names = []
    for i, el in enumerate(c.elements):
        label = el.kind
        if isinstance(el, Multiport):
            label = f"{el.kind}{el.n}"
        names.append(f"e{i}")
        lines.append(f'  e{i} [label="{label}", shape=box];')
    for g in c.detector_groups:
        lines.append(f'  det{g.gid} [label="detect {g.required}", shape=doublecircle];')
    for w in c.wires:
        users = [f"e{i}" for i, el in enumerate(c.elements) if w.id in el.wires_used()]
        for g in c.detector_groups:
            if w.id in g.wires:
                users.append(f"det{g.gid}")
        for a, b in zip(users, users[1:]):
            label = json.dumps(f"{w.mode}.{w.channel}", ensure_ascii=False)
            lines.append(f'  {a} -> {b} [label={label}, fontsize=8];')
    lines.append("}")
    return "\n".join(lines) + "\n"
