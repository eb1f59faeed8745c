"""Written reference verdicts and the checks that make up the correctness gate.

Every check returns a list of problems; an empty list means the verdict is
correct.  A problem counts as one failed verdict in the benchmark result and
makes the benchmark exit non-zero.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

# kind -> (P_ff(n), P_no_ff(n) or None).  With feed-forward: the paper's
# closed forms.  Without: 1/2^(2n) for GHZ (paper); for W the exact form that
# simulation gives (README), 1/(n*2^(3n-1)) for odd n and 1/(n*2^(3n-2)) for
# even n; type5 has no stated value.
REFERENCE = {
    "ghz": (lambda n: Fraction(1, 2 ** (2 * n - 1)),
            lambda n: Fraction(1, 2 ** (2 * n))),
    "w": (lambda n: Fraction(1, 2 ** (2 * n)),
          lambda n: Fraction(1, n * 2 ** (3 * n - (1 if n % 2 else 2)))),
    "type5": (lambda n: Fraction(5, 1152), None),
}

# `sculpt verify` prints probabilities with ten significant digits.
REL_TOL = 1e-8


def expected(kind: str, n: int) -> tuple[Fraction, Fraction | None]:
    p_ff, p_no = REFERENCE[kind]
    return p_ff(n), (p_no(n) if p_no else None)


def _compare(name: str, got: float, want: Fraction | None) -> list[str]:
    if want is None or math.isclose(got, float(want), rel_tol=REL_TOL, abs_tol=0.0):
        return []
    return [f"{name} = {got!r}, reference {want} ({float(want)!r})"]


_VERIFY_LINE = re.compile(r"^(\w+) = (.*)$")


def parse_verify(text: str) -> dict[str, str]:
    """Key/value lines of `sculpt verify` output."""
    out = {}
    for line in text.splitlines():
        m = _VERIFY_LINE.match(line.strip())
        if m:
            out[m.group(1)] = m.group(2)
    return out


def _paren_float(value: str) -> float:
    """The exact float a probability line prints in parentheses."""
    m = re.search(r"\(([^()]+)\)\s*$", value)
    if not m:
        raise ValueError(f"no parenthesised value in {value!r}")
    return float(m.group(1))


def check_verify(kind: str, n: int, rc: int, text: str, atol: float) -> list[str]:
    """`sculpt verify` on a preset: exit code, oracle, probabilities, genuineness."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    f = parse_verify(text)
    try:
        for key in ("epm", "no_bunching", "genuine_entanglement"):
            if f[key] != "True":
                problems.append(f"{key} = {f[key]}")
        if float(f["oracle_fidelity"]) < 1.0 - atol:
            problems.append(f"oracle_fidelity = {f['oracle_fidelity']}")
        m = re.match(r"(\d+)/(\d+) correctable, min corrected fidelity (\S+)",
                     f["outcomes"])
        if not m or int(m.group(1)) == 0 or float(m.group(3)) < 1.0 - atol:
            problems.append(f"outcomes = {f['outcomes']}")
        want_ff, want_no = expected(kind, n)
        problems += _compare("P_ff", _paren_float(f["P_ff"]), want_ff)
        problems += _compare("P_no_ff", _paren_float(f["P_no_ff"]), want_no)
    except (KeyError, ValueError) as exc:
        problems.append(f"unreadable verify output ({exc!r})")
    return problems


def check_simulate(kind: str, n: int, rc: int, text: str, atol: float) -> list[str]:
    """`sculpt simulate --target` on a compiled preset: every outcome
    correctable at full fidelity, P_ff and P_no_ff as referenced."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        rows = json.loads(text)["outcomes"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable simulate report ({exc!r})"]
    problems = []
    if not rows:
        problems.append("no heralded outcome")
    if any(r["correction"] is None or r["fidelity"] < 1.0 - atol for r in rows):
        problems.append("an outcome is not correctable at full fidelity")
    p_ff = sum(r["probability"] for r in rows if r["correction"] is not None)
    p_no = sum(r["probability"] for r in rows
               if r["correction"] and all(c == "I" for c in r["correction"]))
    want_ff, want_no = expected(kind, n)
    return problems + _compare("P_ff", p_ff, want_ff) + _compare("P_no_ff", p_no, want_no)


def check_oracle(m, g) -> list[str]:
    """The perfect-matching prediction equals the sculpting oracle."""
    table = m.sculpting.oracle_wires(g)
    if m.fock.allclose(m.sculpting.apply_sculpting(g, table=table),
                       m.sculpting.pm_predict(g, table=table), atol=m.fock.ATOL):
        return []
    return ["pm_predict disagrees with apply_sculpting"]


def _pm_output_strings(m, g) -> list[tuple[str, ...]]:
    """Per perfect matching, the internal state it leaves on each main mode."""
    kinds = {c.label: c.kind for c in g.circles()}
    strings = []
    for pm in m.bigraph.perfect_matchings(g):
        kept = {g.edges[i].mode: g.edges[i].state.name for i in pm
                if kinds[g.edges[i].mode] is m.bigraph.CircleKind.MAIN}
        strings.append(tuple(kept[str(j)] for j in range(1, g.n_main + 1)))
    return strings


def check_random(m, g, v, atol: float) -> list[str]:
    """Invariants of a random graph's verdict ``v`` (see run.RandomVerdict).

    A compiler rejection is a legitimate verdict.  A graph whose oracle state
    is zero must herald nothing.  Otherwise the heralded outcomes are a
    sub-normalized distribution, feed-forward never loses probability, and
    every corrected outcome reaches the oracle state; when distinct perfect
    matchings leave distinct output strings, every outcome's residual also
    matches the oracle termwise in magnitude.
    """
    if v.status == "rejected":
        return []
    problems = [] if v.epm and v.no_bunching else ["graph lost EPM or no-bunching"]
    total = sum(oc.probability for oc in v.outcomes)
    if v.status == "empty":
        if total > atol:
            return problems + [f"zero oracle state but heralded mass {total!r}"]
        return problems
    if not v.outcomes or not 0.0 < total <= 1.0 + atol:
        problems.append(f"heralded mass {total!r} over {len(v.outcomes)} outcomes")
    if v.p_no_ff > v.p_ff + atol or v.p_ff > total + atol:
        problems.append(f"not P_no_ff {v.p_no_ff!r} <= P_ff {v.p_ff!r} <= total {total!r}")
    if any(oc.corrected_fidelity is not None and oc.corrected_fidelity < 1.0 - atol
           for oc in v.classified):
        problems.append("a corrected outcome misses the oracle state")
    strings = _pm_output_strings(m, g)
    if len(set(strings)) == len(strings):
        want = abs(v.oracle.amps)
        for oc in v.outcomes:
            got = abs(m.sim.residual_qubits(oc, v.circuit).amps)
            if not (got.shape == want.shape and (abs(got - want) <= atol).all()):
                problems.append(f"outcome {oc.pattern} residual differs from the oracle")
                break
    return problems
