"""Command-line front door.

Subcommands: preset, compile, simulate, verify, export-dot, report.
Exit codes: 0 success, 2 validation failure, 3 verification mismatch.
Every fault ends in :func:`main`, which prints each of its messages as one
``error:`` line; ``--atol`` is the one source of the tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import analysis, bigraph, circuit as circuit_mod, compiler, fock, sim

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3

_EXPECTED = {
    # kind -> (p_with_ff(n), p_without_ff(n) or None)
    "ghz": (lambda n: 1.0 / 2 ** (2 * n - 1), lambda n: 1.0 / 2 ** (2 * n)),
    "w": (lambda n: 1.0 / 2 ** (2 * n), lambda n: 1.0 / (n * 2 ** (2 * n + 1))),
    "type5": (lambda n: 5.0 / 1152.0, None),
}
# A report row's probabilities must equal their closed forms up to rounding,
# relative to their size; ``--atol`` is a fidelity tolerance and not read here.
_EXPECTED_RTOL = 1e-9


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _atol(args) -> float:
    """--atol, which must lie in [fock.DROP_TOL, 1): below the drop
    tolerance float rounding would decide classification."""
    if not fock.DROP_TOL <= args.atol < 1.0:  # also rejects nan
        raise CliError(f"atol {args.atol} is not a tolerance in [{fock.DROP_TOL:g}, 1)")
    return args.atol


def _target(kind: str, n: int) -> analysis.QubitState:
    try:
        return analysis.target_state(kind, n)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _only_pattern(text: str | None, detectors: set[int]) -> dict[str, int] | None:
    """The --only-pattern JSON object as a report row's pattern: each key
    the decimal id of one of ``detectors``, each count a non-negative
    integer (not a bool), and the zero counts dropped."""
    if text is None:
        return None
    try:
        wanted = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"--only-pattern: invalid JSON: {exc}") from None
    if not isinstance(wanted, dict):
        raise CliError("--only-pattern: expected a JSON object {\"wire\": count}")
    for key, count in wanted.items():
        if not (key.isdecimal() and str(int(key)) == key and int(key) in detectors):
            raise CliError(f"--only-pattern: {key!r} is not the id of a detector wire")
        if type(count) is not int or count < 0:
            raise CliError(f"--only-pattern: count {count!r} of wire {key} is not "
                           f"a non-negative integer")
    return {key: count for key, count in wanted.items() if count}


def _parse_graph_file(path: str) -> bigraph.SculptingBigraph:
    try:
        return bigraph.parse_graph(_read(path))
    except bigraph.GraphSchemaError as exc:
        raise CliError(f"{path}: {exc}") from None


def _parse_circuit_file(path: str) -> circuit_mod.Circuit:
    try:
        return circuit_mod.parse_circuit(_read(path))
    except circuit_mod.CircuitSchemaError as exc:
        raise CliError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_preset(args) -> int:
    try:
        g = bigraph.preset(args.kind, args.n)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    _write(args.out, bigraph.serialize_graph(g))
    return EXIT_OK


def cmd_compile(args) -> int:
    c = compiler.compile_graph(_parse_graph_file(args.graph))
    if args.dual_rail:
        c = compiler.to_dual_rail(c)
    _write(args.out, circuit_mod.serialize_circuit(c))
    return EXIT_OK


def cmd_simulate(args) -> int:
    atol = _atol(args)
    if args.n is not None and not args.target:
        raise CliError("--n needs --target")
    c = _parse_circuit_file(args.circuit)
    wanted = _only_pattern(args.only_pattern, c.detector_wires())
    target = None
    if args.target:
        n_out = len(c.output_modes)
        if args.n is not None and args.n != n_out:
            raise CliError(f"--n {args.n} does not match the circuit's "
                           f"{n_out} output modes")
        target = _target(args.target, n_out)
    outcomes = sim.run_heralded(c)  # validates c
    if target is not None:
        try:
            outcomes = sim.classify_feedforward(outcomes, target, c, atol=atol)
        except ValueError as exc:
            # residuals that are not one photon per output mode
            raise CliError(f"{args.circuit}: {exc}") from None
    rows = []
    total = 0.0
    for oc in outcomes:
        pattern = {str(w): n for w, n in oc.pattern}
        if wanted is not None and pattern != wanted:
            continue
        total += oc.probability
        rows.append({
            "pattern": pattern,
            "probability": oc.probability,
            "probability_rational": fock.rationalize(oc.probability),
            "correction": list(oc.correction) if oc.correction else None,
            "fidelity": oc.corrected_fidelity,
        })
    doc = {"outcomes": rows, "total_probability": total,
           "total_probability_rational": fock.rationalize(total)}
    # one line, so the C encoder writes it; sorted keys keep it byte-stable
    _write(args.report, json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    atol = _atol(args)
    g = _parse_graph_file(args.graph)
    if args.n != g.n_main:
        raise CliError(f"--n {args.n} does not match the graph's "
                       f"{g.n_main} main circles")
    _target(args.target, args.n)
    try:
        report = analysis.verify_scheme(g, args.target, args.n, atol=atol)
    except compiler.CompileError:  # a ValueError that main reports
        raise
    except ValueError as exc:
        # a compiled scheme whose oracle state has no qubit reading
        raise CliError(f"{args.graph}: {exc}", EXIT_MISMATCH) from None
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passes(atol) else EXIT_MISMATCH


def cmd_export_dot(args) -> int:
    if bool(args.graph) == bool(args.circuit):
        raise CliError("pass exactly one of --graph or --circuit")
    if args.graph:
        g = _parse_graph_file(args.graph)
        _write(args.out, bigraph.graph_to_dot(g))
    else:
        _write(args.out, circuit_mod.circuit_to_dot(_parse_circuit_file(args.circuit)))
    return EXIT_OK


def cmd_report(args) -> int:
    atol = _atol(args)
    if args.max_n < 2:
        raise CliError(f"--max-n {args.max_n} is below 2, the smallest GHZ and W size")
    jobs = ([("ghz", n) for n in range(2, args.max_n + 1)]
            + [("w", n) for n in range(2, args.max_n + 1)] + [("type5", 3)])
    header = (f"{'scheme':8} {'n':>2} {'P_ff':>12} {'expected':>12} "
              f"{'P_no_ff':>12} {'expected':>12} {'fid':>6} {'ok':>4}")
    print(header)
    print("-" * len(header))
    mismatches = 0
    for kind, n in jobs:
        g = bigraph.preset(kind, n)
        rep = analysis.verify_scheme(g, kind, n, atol=atol)
        exp_ff_f, exp_no_f = _EXPECTED[kind]
        exp_ff = exp_ff_f(n)
        exp_no = exp_no_f(n) if exp_no_f else None
        ok = (rep.passes(atol) and math.isclose(rep.p_with_ff, exp_ff, rel_tol=_EXPECTED_RTOL)
              and (exp_no is None
                   or math.isclose(rep.p_without_ff, exp_no, rel_tol=_EXPECTED_RTOL)))
        if not ok:
            mismatches += 1
        print(f"{kind:8} {n:>2} "
              f"{fock.rationalize(rep.p_with_ff) or rep.p_with_ff:>12} "
              f"{fock.rationalize(exp_ff) or exp_ff:>12} "
              f"{fock.rationalize(rep.p_without_ff) or rep.p_without_ff:>12} "
              f"{(fock.rationalize(exp_no) if exp_no else '-'):>12} "
              f"{rep.oracle_target_fidelity:6.4f} {'PASS' if ok else 'FAIL':>4}")
    return EXIT_MISMATCH if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A bad command line is a :class:`CliError`, which :func:`main` prints
    as one ``error:`` line; subparsers inherit this class."""

    def error(self, message: str):
        raise CliError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    each ``parse_args`` fills a fresh namespace, so no call sees another's
    values."""
    p = _Parser(prog="sculpt",
                description="compile and simulate heralded entanglement-generation circuits")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--atol", type=float, default=fock.ATOL,
                        help=f"comparison tolerance (default {fock.ATOL:g})")

    sp = sub.add_parser("preset", help="emit a preset graph")
    sp.add_argument("--kind", required=True, choices=["ghz", "w", "type5"])
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_preset)

    sp = sub.add_parser("compile", help="lower a graph to a circuit")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--dual-rail", action="store_true")
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("simulate", help="full herald enumeration")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--report", default="-")
    sp.add_argument("--only-pattern", default=None,
                    help='JSON object {"wire": count} selecting one pattern')
    sp.add_argument("--target", choices=["ghz", "w", "type5"], default=None)
    sp.add_argument("--n", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="end-to-end oracle/circuit comparison")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--target", required=True, choices=["ghz", "w", "type5"])
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("export-dot", help="graph/circuit visualization export")
    sp.add_argument("--graph", default=None)
    sp.add_argument("--circuit", default=None)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_export_dot)

    sp = sub.add_parser("report", help="acceptance table over the presets")
    sp.add_argument("--max-n", type=int, default=5)
    common(sp)
    sp.set_defaults(func=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (compiler.CompileError, sim.SimulationError) as exc:
        for d in exc.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
