"""Spans recorded from outside the program, and the traced propagation replay.

``Tracer.install`` wraps public functions of the sculpt modules for the
duration of a traced pass: every module attribute bound to one of them is
swapped for a wrapper that records a span (name, start, end, parent, scheme
id) and a few exact counts.  Nothing inside the package changes.

``replay`` repeats a circuit's propagation with public calls only, element by
element, to break ``run_heralded`` down by stage and element kind; its
outcome list must equal the program's (the replay guard).
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

STAGES = ("prep", "split", "route", "subtract", "merge", "mix")
KINDS = ("source", "hwp", "uhwp", "pbs", "multiport", "swap", "merge")

# (module, function) -> span name.  Spans are named after the layer that
# owns the function.
WRAPPED = {
    ("bigraph", "is_epm"): "bigraph.is_epm",
    ("bigraph", "perfect_matchings"): "bigraph.perfect_matchings",
    ("sculpting", "apply_sculpting"): "sculpting.apply_sculpting",
    ("sculpting", "pm_predict"): "sculpting.pm_predict",
    ("compiler", "compile_graph"): "compiler.compile_graph",
    ("compiler", "to_dual_rail"): "compiler.to_dual_rail",
    ("circuit", "parse_circuit"): "circuit.parse_circuit",
    ("circuit", "validate"): "circuit.validate",
    ("sim", "run_heralded"): "sim.run_heralded",
    ("sim", "classify_feedforward"): "sim.classify_feedforward",
    ("analysis", "genuine_entanglement"): "analysis.genuine_entanglement",
    ("analysis", "verify_scheme"): "analysis.verify_scheme",
}

PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in WRAPPED.values()},
    "bigraph.matchings": "count",
    "sculpting.oracle_terms": "count",
    "compiler.elements": "count",
    "compiler.wires": "count",
    "compiler.rejected_ratio": "ratio",
    **{f"sim.prop.{st}_s": "s" for st in STAGES},
    **{f"sim.prop.{st}_peak_terms": "count" for st in STAGES},
    **{f"sim.kernel.{k}_s": "s" for k in KINDS},
    **{f"sim.kernel.{k}_terms_in": "count" for k in KINDS},
    "sim.herald_filter_s": "s",
    "sim.herald_kept_ratio": "ratio",
    "sim.group_by_counts_s": "s",
    "sim.outcomes": "count",
    "sim.classify_per_outcome_s": "s",
    "sim.correctable_ratio": "ratio",
    "sim.identity_ratio": "ratio",
    "analysis.verify_unattributed_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory span log of one traced pass, plus exact counters."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[list] = []      # [name, start, end, parent, scheme, info]
        self.stack: list[int] = []
        self.scheme = ""
        self.counts: Counter = Counter()
        # (scheme, circuit, [(pattern, probability)]) per run_heralded call
        self.heralded: list[tuple] = []

    @contextmanager
    def span(self, name: str, **info):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
               self.scheme, info or None]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name: str, fn, reject: type):
        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    out = fn(*args, **kwargs)
                except reject:
                    self.counts["compiler.attempts"] += 1
                    self.counts["compiler.rejected"] += 1
                    raise
            self._count(name, args, out)
            return out
        return traced

    def _count(self, name: str, args, out) -> None:
        c = self.counts
        if name == "bigraph.perfect_matchings":
            c["bigraph.matchings"] += len(out)
        elif name == "sculpting.apply_sculpting":
            c["sculpting.oracle_terms"] += out.num_terms()
        elif name == "compiler.compile_graph":
            c["compiler.attempts"] += 1
            c["compiler.elements"] += len(out.elements)
            c["compiler.wires"] += len(out.wires)
        elif name == "sim.run_heralded":
            c["sim.outcomes"] += len(out)
            self.heralded.append((self.scheme, args[0],
                                  [(oc.pattern, oc.probability) for oc in out]))
        elif name == "sim.classify_feedforward":
            c["sim.classified"] += len(out)
            c["sim.correctable"] += sum(oc.correction is not None for oc in out)
            c["sim.identity"] += sum(oc.identity for oc in out)

    @contextmanager
    def install(self, m):
        """Wrap every binding of the WRAPPED functions in the sculpt modules."""
        mods = [getattr(m, name) for name in
                ("bigraph", "sculpting", "compiler", "circuit", "sim", "analysis", "cli")]
        originals = {getattr(getattr(m, mod), fn): name for (mod, fn), name in WRAPPED.items()}
        wrappers = {fn: self._wrap(name, fn, m.compiler.CompileError)
                    for fn, name in originals.items()}
        patched = []
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)


def dump(tracers: list[Tracer], path) -> None:
    """Write every traced pass's spans as JSON lines (times from pass start)."""
    with open(path, "w") as fh:
        for n, tr in enumerate(tracers):
            for name, start, end, parent, scheme, info in tr.spans:
                rec = {"pass": n, "name": name, "start": start - tr.t0,
                       "end": end - tr.t0, "parent": parent, "scheme": scheme}
                fh.write(json.dumps({**rec, **(info or {})}) + "\n")


def replay(m, tracer: Tracer, circuit, layout) -> list[tuple]:
    """Propagate ``circuit`` with public calls, recording one span per step.

    Elements up to the first ``mix`` element go through ``sim.apply_element``;
    each detector group is then projected onto its required count over its
    block's pre-mix wires with ``fock.project_count``; the ``mix`` tail follows
    and ``fock.group_by_counts`` splits the final state.  Returns the
    (pattern, probability) list that ``run_heralded`` must reproduce.
    """
    elements = circuit.elements
    split = next((i for i, el in enumerate(elements) if el.stage == "mix"), len(elements))
    state = m.fock.FockState.vacuum()

    def apply(state, el):
        kind = "multiport" if el.kind == "bs" else el.kind
        with tracer.span(f"sim.kernel.{kind}", stage=el.stage,
                         terms_in=state.num_terms()) as rec:
            out = m.sim.apply_element(state, el)
        rec[5]["terms_out"] = out.num_terms()
        return out

    with tracer.span("replay"):
        for el in elements[:split]:
            state = apply(state, el)
        terms_in = state.num_terms()
        for grp in circuit.detector_groups:
            with tracer.span("sim.herald_filter", gid=grp.gid):
                state, _ = m.fock.project_count(
                    state, layout.blocks[grp.gid].pre_mix_wires, grp.required)
        tracer.counts["sim.herald_terms_in"] += terms_in
        tracer.counts["sim.herald_terms_kept"] += state.num_terms()
        for el in elements[split:]:
            state = apply(state, el)
        with tracer.span("sim.group_by_counts"):
            groups = list(m.fock.group_by_counts(state, sorted(circuit.detector_wires())))
    outcomes = []
    for sig, comp in groups:
        counts = dict(sig)
        if all(sum(counts.get(w, 0) for w in grp.wires) == grp.required
               for grp in circuit.detector_groups):
            outcomes.append((sig, m.fock.norm2(comp)))
    return outcomes


def guard(got: list[tuple], replayed: list[tuple], atol: float) -> list[str]:
    """The replay must reproduce the program's (pattern, probability) list."""
    if [p for p, _ in got] != [p for p, _ in replayed]:
        return [f"replay heralds {len(replayed)} patterns, run_heralded {len(got)}"]
    if any(abs(a - b) > atol for (_, a), (_, b) in zip(got, replayed)):
        return ["replay probabilities differ from run_heralded"]
    return []


def _self_time(recs: list, name: str) -> float:
    """Summed duration of spans called ``name`` minus their direct children."""
    total = 0.0
    for n, start, end, *_rest in recs:
        if n == name:
            total += end - start
    for n, start, end, parent, *_rest in recs:
        if parent >= 0 and recs[parent][0] == name:
            total -= end - start
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = tracer.spans
    busy: dict[str, float] = defaultdict(float)
    stage_time: dict[str, float] = defaultdict(float)
    kind_terms: dict[str, int] = defaultdict(int)
    peaks: dict[tuple, int] = {}
    for name, start, end, parent, scheme, info in spans:
        busy[name] += end - start
        if name.startswith("sim.kernel."):
            stage_time[info["stage"]] += end - start
            kind_terms[name] += info["terms_in"]
            key = (scheme, parent, info["stage"])
            peaks[key] = max(peaks.get(key, 0), info["terms_out"])
    c = tracer.counts
    out = {f"{name}_s": busy[name] for name in WRAPPED.values()}
    out.update({
        "bigraph.matchings": c["bigraph.matchings"],
        "sculpting.oracle_terms": c["sculpting.oracle_terms"],
        "compiler.elements": c["compiler.elements"],
        "compiler.wires": c["compiler.wires"],
        "compiler.rejected_ratio": c["compiler.rejected"] / max(c["compiler.attempts"], 1),
        "sim.herald_filter_s": busy["sim.herald_filter"],
        "sim.herald_kept_ratio": c["sim.herald_terms_kept"] / max(c["sim.herald_terms_in"], 1),
        "sim.group_by_counts_s": busy["sim.group_by_counts"],
        "sim.outcomes": c["sim.outcomes"],
        "sim.classify_per_outcome_s":
            busy["sim.classify_feedforward"] / max(c["sim.classified"], 1),
        "sim.correctable_ratio": c["sim.correctable"] / max(c["sim.classified"], 1),
        "sim.identity_ratio": c["sim.identity"] / max(c["sim.classified"], 1),
        "analysis.verify_unattributed_s": _self_time(spans, "analysis.verify_scheme"),
        "cli.overhead_s": _self_time(spans, "cli.main"),
    })
    for st in STAGES:
        out[f"sim.prop.{st}_s"] = stage_time[st]
        out[f"sim.prop.{st}_peak_terms"] = sum(v for (_, _, s), v in peaks.items() if s == st)
    for k in KINDS:
        out[f"sim.kernel.{k}_s"] = busy[f"sim.kernel.{k}"]
        out[f"sim.kernel.{k}_terms_in"] = kind_terms[f"sim.kernel.{k}"]
    return out
