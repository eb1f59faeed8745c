"""sculpt benchmark: time to a checked verdict, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One process runs one workload, one scheme at a time (closed loop, one
client).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object.  perfbench/README.md
lists the workloads and every metric.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out"

# BENCHMARK.json lists all but `scale`, which stays runnable by hand: with
# four workloads the time budget of a full benchmark round allows only ~32 s
# runs, too short to average out a shared host's speed drift.
WORKLOADS = ("acceptance", "scale", "random", "dual_rail")
PRESETS = {
    "acceptance": [("ghz", 2), ("ghz", 3), ("ghz", 4), ("ghz", 5),
                   ("w", 2), ("w", 3), ("w", 4), ("type5", 3)],
    "scale": [("ghz", 6), ("w", 5)],
    "dual_rail": [("ghz", 4), ("w", 4), ("type5", 3)],
}
TINY_PRESETS = {"acceptance": [("ghz", 2), ("w", 2)], "scale": [("ghz", 3)],
                "dual_rail": [("ghz", 2), ("w", 2)]}

# The random workload is stratified by graph shape.  A shape is a graph up to
# relabelling its dots and circles; realizable graphs of a class take only a
# few (2 for (2,0), 24 for (2,1), 8 for (3,0)), each with its own fixed cost
# (4-28 ms accepted, ~1 ms rejected).  Plain draws made the mix of shapes, and
# so the pass time, follow the seed by ~10%.  The seed draws POOL_DRAWS graphs
# per (n_main, n_ancilla) class and keeps the first PER_SHAPE[class] of every
# shape seen, compiler rejections included.  The rarest shape has a ~2%
# share, so a pool misses it with odds of ~1e-7.  Four- and five-dot graphs
# are left out: they cost 0.05-1 s each with a spread of 55-75% per shape, so
# a few of them would set the pass time; type5 covers that size.
PER_SHAPE = {(2, 0): 20, (2, 1): 8, (3, 0): 30}
TINY_PER_SHAPE = {(2, 0): 1, (2, 1): 1, (3, 0): 1}
POOL_DRAWS = 800

# Set-up is repeated at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed; a preset set-up takes <0.1 s, and the median of five swung by 25%.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
SAMPLES_BEYOND_P90 = 10


@dataclass
class Scheme:
    sid: str
    graph: object
    kind: str = ""          # preset target kind; empty for random graphs
    n: int = 0
    path: Path | None = None


@dataclass
class RandomVerdict:
    """Outcome of the random workload's verify calls for one graph."""

    status: str             # "rejected" | "empty" (zero oracle state) | "realized"
    epm: bool
    no_bunching: bool
    circuit: object = None
    oracle: object = None
    outcomes: list = field(default_factory=list)
    classified: list = field(default_factory=list)
    p_ff: float = 0.0
    p_no_ff: float = 0.0
    genuine: bool = False

    def key(self) -> tuple:
        """What must repeat exactly from pass to pass."""
        return (self.status, len(self.outcomes), self.p_ff, self.p_no_ff, self.genuine)


# ---------------------------------------------------------------------------
# Set-up: import the package and generate the inputs
# ---------------------------------------------------------------------------

def import_sculpt() -> SimpleNamespace:
    """Import the package afresh from the checkout's ``src``."""
    for name in [k for k in sys.modules if k == "sculpt" or k.startswith("sculpt.")]:
        del sys.modules[name]
    names = ("fock", "bigraph", "sculpting", "circuit", "compiler", "sim", "analysis", "cli")
    m = SimpleNamespace(**{n: importlib.import_module(f"sculpt.{n}") for n in names})
    if not Path(m.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sculpt imported from {m.cli.__file__}, not from {SRC}")
    return m


@functools.cache
def _canonical(circles: tuple, dots: tuple, legs: tuple) -> tuple:
    """Smallest relabelling of ``legs`` (circle, dot, state) over every
    permutation of the main circles, of the ancillas and of the dots."""
    mains, ancs = circles
    best = None
    for pm in itertools.permutations(mains):
        for pa in itertools.permutations(ancs):
            circle = dict(zip(mains + ancs, pm + pa))
            for pd in itertools.permutations(dots):
                dot = dict(zip(dots, pd))
                key = tuple(sorted((circle[c], dot[d], st) for c, d, st in legs))
                best = key if best is None or key < best else best
    return best


def shape(g) -> tuple:
    """The graph up to relabelling; realizable amplitudes follow from it."""
    legs = tuple(sorted((e.mode, e.dot, e.state.name) for e in g.edges))
    return _canonical((tuple(g.main_labels()), tuple(g.ancillas)),
                      tuple(sorted({e.dot for e in g.edges})), legs)


def draw_random(m, rng, per_shape: dict) -> list[Scheme]:
    """Per class, the first ``per_shape[class]`` graphs of every shape seen
    in POOL_DRAWS draws; shapes short of that are filled by further draws."""
    schemes = []
    for (n_main, n_anc), want in per_shape.items():
        def draw():
            return m.bigraph.random_epm(rng, n_main, n_anc, realizable=True)
        kept: dict[tuple, list] = {}
        for _ in range(POOL_DRAWS):
            g = draw()
            kept.setdefault(shape(g), []).append(g)
        while any(len(group) < want for group in kept.values()):
            g = draw()
            kept.get(shape(g), []).append(g)
        graphs = [g for group in kept.values() for g in group[:want]]
        schemes += [Scheme(f"r{len(schemes) + i}-{n_main}x{n_anc}", g)
                    for i, g in enumerate(graphs)]
    return schemes


def make_inputs(m, workload: str, seed: int, workdir: Path, tiny: bool):
    """The workload's schemes in seeded order, and a hash of their graph JSON."""
    rng = np.random.default_rng(seed)
    if workload == "random":
        schemes = draw_random(m, rng, TINY_PER_SHAPE if tiny else PER_SHAPE)
    else:
        schemes = [Scheme(f"{kind}{n}", m.bigraph.preset(kind, n), kind, n)
                   for kind, n in (TINY_PRESETS if tiny else PRESETS)[workload]]
    schemes = [schemes[i] for i in rng.permutation(len(schemes))]
    digest = hashlib.sha256()
    for s in schemes:
        text = m.bigraph.serialize_graph(s.graph)
        digest.update(text.encode())
        if workload != "random":
            s.path = workdir / f"{s.sid}.json"
            s.path.write_text(text)
    warm = Scheme("warmup", m.bigraph.preset("ghz", 2), "ghz", 2, workdir / "warmup.json")
    warm.path.write_text(m.bigraph.serialize_graph(warm.graph))
    return schemes, warm, digest.hexdigest()


# ---------------------------------------------------------------------------
# The user's operation: one checked verdict per scheme
# ---------------------------------------------------------------------------

def _span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def run_cli(m, tracer, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with _span(tracer, "cli.main"), redirect_stdout(buf):
        rc = m.cli.main(argv)
    return rc, buf.getvalue()


def verify_cli(m, s: Scheme, tracer) -> tuple[int, str]:
    """`sculpt verify` in-process, with the CLI's defaults."""
    return run_cli(m, tracer, ["verify", "--graph", str(s.path),
                               "--target", s.kind, "--n", str(s.n)])


def dual_rail_cli(m, s: Scheme, tracer) -> tuple[int, str]:
    """`sculpt compile --dual-rail`, then `sculpt simulate --target`."""
    rails = s.path.with_suffix(".rails.json")
    rc, text = run_cli(m, tracer, ["compile", "--graph", str(s.path),
                                   "--dual-rail", "--out", str(rails)])
    if rc:
        return rc, text
    return run_cli(m, tracer, ["simulate", "--circuit", str(rails),
                               "--target", s.kind, "--n", str(s.n)])


def verify_random(m, s: Scheme, _tracer) -> RandomVerdict:
    """The library calls `analysis.verify_scheme` makes, with its defaults and
    with the oracle's own qubit state as the target: random graphs have no
    named target.  Classification is serial, the library default; with the
    CLI's one worker per CPU, load from other tenants of a shared 2-vCPU host
    made the pass time swing by half between passes."""
    g = s.graph
    epm = m.bigraph.is_epm(g)
    table = m.sculpting.oracle_wires(g)
    final = m.sculpting.apply_sculpting(g, table=table)
    nb = m.sculpting.no_bunching_check(final, g, table=table)
    oracle = None if final.is_zero() else m.analysis.oracle_qubit_state(g)
    try:
        circuit = m.compiler.compile_graph(g)
    except m.compiler.CompileError:
        return RandomVerdict("rejected", epm, nb)
    outcomes = m.sim.run_heralded(circuit)
    if oracle is None:
        return RandomVerdict("empty", epm, nb, circuit, None, outcomes)
    classified = m.sim.classify_feedforward(outcomes, oracle, circuit)
    return RandomVerdict("realized", epm, nb, circuit, oracle, outcomes, classified,
                         m.sim.success_probability(classified, "with_ff"),
                         m.sim.success_probability(classified, "without_ff"),
                         m.analysis.genuine_entanglement(oracle))


OPS = {"acceptance": verify_cli, "scale": verify_cli,
       "dual_rail": dual_rail_cli, "random": verify_random}


class Bench:
    """Runs passes over one workload's schemes and judges every verdict."""

    def __init__(self, m, workload: str, schemes: list[Scheme]):
        self.m = m
        self.workload = workload
        self.schemes = schemes
        self.op = OPS[workload]
        self.atol = m.fock.ATOL
        self.first: dict[str, object] = {}
        self.layouts: dict[str, object] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {s.sid: [] for s in schemes}
        self.realized: set[str] = set()

    def warm_up(self, warm: Scheme) -> None:
        self.op(self.m, warm, None)

    def one_pass(self, tracer=None) -> list[tuple]:
        """Time every scheme once: (scheme, seconds, result) per scheme."""
        gc.collect()
        results = []
        for s in self.schemes:
            if tracer:
                tracer.scheme = s.sid
            t0 = time.perf_counter()
            try:
                with _span(tracer, "scheme"):
                    result = self.op(self.m, s, tracer)
            except Exception as exc:  # a crash is a failed verdict, not a stop
                result = exc
            results.append((s, time.perf_counter() - t0, result))
        return results

    def judge(self, results: list[tuple], extra: dict | None = None) -> None:
        """Check each verdict; ``extra`` adds problems found by the traced
        pass (oracle cross-check, replay guard) to that pass's verdicts."""
        for s, seconds, result in results:
            self.attempted += 1
            if isinstance(result, Exception):
                problems = [f"raised {result!r}"]
            elif s.sid not in self.first:
                problems = self.check(s, result) + reference.check_oracle(self.m, s.graph)
                self.first[s.sid] = result
            elif self.workload == "random":
                same = result.key() == self.first[s.sid].key()
                problems = [] if same else ["verdict changed between passes"]
            else:
                problems = self.check(s, result)
            problems += (extra or {}).get(s.sid, [])
            self.samples[s.sid].append(seconds)
            if self.workload != "random" or getattr(result, "status", "") == "realized":
                self.realized.add(s.sid)
            if problems:
                self.problems.append(f"{s.sid}: " + "; ".join(problems))

    def check(self, s: Scheme, result) -> list[str]:
        if self.workload == "random":
            return reference.check_random(self.m, s.graph, result, self.atol)
        if self.workload == "dual_rail":
            return reference.check_simulate(s.kind, s.n, *result, self.atol)
        return reference.check_verify(s.kind, s.n, *result, self.atol)

    def traced_pass(self) -> tuple[spans.Tracer, float]:
        """One pass with spans around every wrapped call, the oracle
        cross-check, and a replay of every simulated circuit."""
        tracer = spans.Tracer()
        extra: dict[str, list[str]] = {}
        with tracer.install(self.m):
            results = self.one_pass(tracer)
            for s in self.schemes:
                tracer.scheme = s.sid
                with tracer.span("check"):
                    extra[s.sid] = reference.check_oracle(self.m, s.graph)
        for sid, circuit, outcomes in tracer.heralded:
            tracer.scheme = sid
            replayed = spans.replay(self.m, tracer, circuit, self.layout(sid, circuit))
            extra[sid] += ["replay guard: " + p for p in spans.guard(outcomes, replayed, self.atol)]
        self.judge(results, extra)
        return tracer, sum(seconds for _, seconds, _ in results)

    def layout(self, sid: str, circuit):
        """Compiler layout of a circuit; a circuit read back from JSON has
        none, so it is compiled again from its graph (wire ids are stable)."""
        if circuit.layout is not None:
            return circuit.layout
        if sid not in self.layouts:
            g = next(s.graph for s in self.schemes if s.sid == sid)
            self.layouts[sid] = self.m.compiler.compile_graph(g).layout
        return self.layouts[sid]


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, workdir: Path, tiny: bool):
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        m = import_sculpt()
        schemes, warm, digest = make_inputs(m, workload, seed, workdir, tiny)
        times.append(time.perf_counter() - t0)
    return m, schemes, warm, digest, times


def p90_line(times: list[float]) -> str:
    need = SAMPLES_BEYOND_P90 * 10
    if len(times) < need:
        return f"n/a ({len(times)} samples; needs at least {need} for ten beyond p90)"
    p90 = statistics.quantiles(times, n=10)[-1]
    beyond = sum(t > p90 for t in times)
    return f"{p90:.6f} s ({len(times)} samples, {beyond} beyond)"


def measure(bench: Bench, seconds: float, trace_path: Path | None) -> tuple[dict, list[str]]:
    """Run passes until the next one would end after ``seconds``; with a
    ``trace_path``, pair each with a traced pass and write the spans there."""
    start = time.perf_counter()
    passes, untraced, tracers, traced = 0, [], [], []
    while True:
        t0 = time.perf_counter()
        results = bench.one_pass()
        bench.judge(results)
        passes += 1
        untraced.append(sum(sec for _, sec, _ in results))
        if trace_path:
            tracer, seconds_traced = bench.traced_pass()
            tracers.append(tracer)
            traced.append(seconds_traced)
        step = time.perf_counter() - t0
        if time.perf_counter() - start + step > seconds:
            break
    if trace_path:
        per_pass = [spans.layer_metrics(t) for t in tracers]
        metrics = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_frac"] = (statistics.median(traced)
                                          / statistics.median(untraced) - 1.0)
        spans.dump(tracers, trace_path)
        units = spans.PER_LAYER_UNITS
        lines = [f"  traced passes {len(tracers)}; spans in {trace_path.relative_to(HERE.parent)}"]
    else:
        # Both timings start from one time per scheme over the run's passes.
        # A shared host's speed can swing by 2x within seconds.  A random
        # scheme takes milliseconds, so each sample sees one speed and the
        # fastest is the one least touched by the swings.  The CLI schemes
        # take 0.1-3 s, so each sample already spans several swings and their
        # mean is steadier than the fastest of a few.
        fastest = bench.workload == "random"
        pick = min if fastest else statistics.fmean
        per_scheme = {sid: pick(v) for sid, v in bench.samples.items()}
        how = "fastest" if fastest else "mean"
        pass_s = sum(per_scheme.values())
        times = [t for sid in bench.realized for t in bench.samples[sid]]
        metrics = {"pass_s": pass_s,
                   "scheme_p50_s": statistics.median(per_scheme[sid] for sid in bench.realized),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = {"pass_s": "s", "scheme_p50_s": "s", "peak_rss_mb": "MB"}
        lines = [f"  pass_s        {pass_s:.6f} s (sum of per-scheme {how} times "
                 f"over {passes} passes)",
                 f"  scheme_p50_s  {metrics['scheme_p50_s']:.6f} s (median over "
                 f"{len(bench.realized)} schemes of their {how} times; {len(times)} samples)",
                 f"  scheme_p90_s  {p90_line(times)}",
                 f"  peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB"]
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, lines


def run_workload(args) -> int:
    if not (SRC / "sculpt" / "__init__.py").is_file():
        print(f"error: no sculpt package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        m, schemes, warm, digest, setup_times = setup(args.workload, args.seed, workdir,
                                                      args.tiny)
        bench = Bench(m, args.workload, schemes)
        bench.warm_up(warm)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
        metrics, lines = measure(bench, args.seconds, trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        setup_s = statistics.median(setup_times)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        lines.insert(0, f"  setup_s       {setup_s:.6f} s (median of {len(setup_times)} set-ups)")
    failed = len(bench.problems)
    print(f"workload {args.workload}  seed {args.seed}  schemes {len(schemes)}  "
          f"inputs sha256 {digest}")
    for line in lines:
        print(line)
    print(f"  failed_frac   {failed}/{bench.attempted}")
    for problem in bench.problems[:20]:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own process (peak RSS never goes down)."""
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        worst = max(worst, proc.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few small schemes per workload (self-test)")
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
