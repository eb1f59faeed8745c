"""Command-line surface: subcommands, exit codes, determinism."""

import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sculpt import analysis, bigraph, circuit, cli, sim
from sculpt.bigraph import ghz, serialize_graph, w
from sculpt.bigraph import Edge, InternalState, SculptingBigraph
from sculpt.circuit import parse_circuit, serialize_circuit
from sculpt.cli import main
from sculpt.compiler import CompileError, compile_graph, to_dual_rail


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_preset_writes_graph(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _, _ = run_cli(capsys, "preset", "--kind", "ghz", "--n", "3",
                         "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n_main"] == 3 and len(doc["dots"]) == 3


def test_preset_rejects_bad_n(capsys):
    code, _, err = run_cli(capsys, "preset", "--kind", "ghz", "--n", "1")
    assert code == 2 and "error" in err


def test_compile_and_simulate(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    r = tmp_path / "r.json"
    assert run_cli(capsys, "preset", "--kind", "ghz", "--n", "2", "--out", str(g))[0] == 0
    assert run_cli(capsys, "compile", "--graph", str(g), "--out", str(c))[0] == 0
    code, _, _ = run_cli(capsys, "simulate", "--circuit", str(c), "--report",
                         str(r), "--target", "ghz", "--n", "2")
    assert code == 0
    doc = json.loads(r.read_text())
    assert len(doc["outcomes"]) == 4
    assert doc["total_probability_rational"] == "1/8"
    assert all(oc["correction"] is not None for oc in doc["outcomes"])


def test_simulate_only_pattern(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    run_cli(capsys, "preset", "--kind", "ghz", "--n", "2", "--out", str(g))
    run_cli(capsys, "compile", "--graph", str(g), "--out", str(c))
    code, out, _ = run_cli(capsys, "simulate", "--circuit", str(c))
    doc = json.loads(out)
    pattern = doc["outcomes"][0]["pattern"]
    code, out, _ = run_cli(capsys, "simulate", "--circuit", str(c),
                           "--only-pattern", json.dumps(pattern))
    assert code == 0
    assert len(json.loads(out)["outcomes"]) == 1


def test_compile_non_epm_graph_exits_2(tmp_path, capsys):
    edges = list(ghz(2).edges)
    edges[0] = Edge(edges[0].mode, edges[0].dot, edges[0].amplitude,
                    InternalState.zero())
    bad = SculptingBigraph(2, (), tuple(edges))
    path = tmp_path / "bad.json"
    path.write_text(serialize_graph(bad))
    code, _, err = run_cli(capsys, "compile", "--graph", str(path))
    assert code == 2
    assert "circle" in err and edges[0].mode in err


def test_verify_ghz3(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli(capsys, "preset", "--kind", "ghz", "--n", "3", "--out", str(g))
    code, out, _ = run_cli(capsys, "verify", "--graph", str(g),
                           "--target", "ghz", "--n", "3")
    assert code == 0
    assert "P_ff = 1/32" in out


def test_verify_type5(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli(capsys, "preset", "--kind", "type5", "--out", str(g))
    code, out, _ = run_cli(capsys, "verify", "--graph", str(g),
                           "--target", "type5", "--n", "3")
    assert code == 0
    assert "P_ff = 5/1152" in out


def test_shared_parser_keeps_no_flag_between_calls(tmp_path, capsys, monkeypatch):
    # main builds its parser once; an --atol given in one call must not
    # reach the next one, which takes the default
    seen = []
    verify_scheme = analysis.verify_scheme

    def spy(g, kind, n, atol):
        seen.append(atol)
        return verify_scheme(g, kind, n, atol=atol)

    monkeypatch.setattr(analysis, "verify_scheme", spy)
    g = tmp_path / "g.json"
    run_cli(capsys, "preset", "--kind", "ghz", "--n", "2", "--out", str(g))
    argv = ["verify", "--graph", str(g), "--target", "ghz", "--n", "2"]
    assert run_cli(capsys, *argv, "--atol", "1e-6")[0] == 0
    assert run_cli(capsys, *argv)[0] == 0
    assert seen == [1e-6, 1e-9]
    assert cli.build_parser() is cli.build_parser()


def test_verify_mismatched_target_exits_3(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli(capsys, "preset", "--kind", "ghz", "--n", "3", "--out", str(g))
    code, out, _ = run_cli(capsys, "verify", "--graph", str(g),
                           "--target", "w", "--n", "3")
    assert code == 3


def test_export_dot(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    run_cli(capsys, "preset", "--kind", "w", "--n", "2", "--out", str(g))
    run_cli(capsys, "compile", "--graph", str(g), "--out", str(c))
    code, out, _ = run_cli(capsys, "export-dot", "--graph", str(g))
    assert code == 0 and "digraph" in out
    code, out, _ = run_cli(capsys, "export-dot", "--circuit", str(c))
    assert code == 0 and "digraph" in out
    code, _, err = run_cli(capsys, "export-dot", "--graph", str(g),
                           "--circuit", str(c))
    assert code == 2


def test_export_dot_escapes_labels(tmp_path, capsys):
    # an ancilla label with a quote and a backslash stays inside its DOT string
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    g.write_text(serialize_graph(w(2)).replace('"X"', json.dumps('X"y\\z')))
    assert run_cli(capsys, "compile", "--graph", str(g), "--out", str(c))[0] == 0
    for flag, path in (("--graph", g), ("--circuit", c)):
        code, out, _ = run_cli(capsys, "export-dot", flag, str(path))
        assert code == 0
        assert r'"X\"y\\z' in out
        # outside its DOT strings, no line holds a quote
        bare = [re.sub(r'"(?:[^"\\]|\\.)*"', "", line) for line in out.splitlines()]
        assert not any('"' in line for line in bare)


def test_dual_rail_flag(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    run_cli(capsys, "preset", "--kind", "w", "--n", "2", "--out", str(g))
    code, _, _ = run_cli(capsys, "compile", "--graph", str(g), "--dual-rail",
                         "--out", str(c))
    assert code == 0
    doc = json.loads(c.read_text())
    assert doc["encoding"] == "dual-rail"
    assert all(el["kind"] != "pbs" for el in doc["elements"])


@pytest.mark.parametrize("kind,n", [("ghz", 3), ("w", 3), ("type5", 3)])
def test_dual_rail_twin_simulates_to_the_same_report(tmp_path, capsys, kind, n):
    g = tmp_path / "g.json"
    run_cli(capsys, "preset", "--kind", kind, "--n", str(n), "--out", str(g))
    reports = []
    for flags in ([], ["--dual-rail"]):
        c = tmp_path / "c.json"
        r = tmp_path / "r.json"
        assert run_cli(capsys, "compile", "--graph", str(g), *flags, "--out", str(c))[0] == 0
        assert run_cli(capsys, "simulate", "--circuit", str(c), "--target", kind,
                       "--report", str(r))[0] == 0
        reports.append(json.loads(r.read_text()))
    assert reports[0]["outcomes"] and reports[0] == reports[1]


def _plain(value):
    """Tuples as the lists JSON loads them as."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _circuit_document(c):
    """The circuit JSON document, built from its dataclass fields."""
    return {
        "encoding": c.encoding,
        "name": c.name,
        "wires": [dataclasses.asdict(wire) for wire in c.wires],
        "elements": [{"kind": el.kind,
                      **{f.name: _plain(getattr(el, f.name)) for f in dataclasses.fields(el)}}
                     for el in c.elements],
        "detector_groups": [{"id": g.gid, "wires": list(g.wires), "count": g.required}
                            for g in c.detector_groups],
        "outputs": list(c.outputs),
        "output_modes": list(c.output_modes),
    }


def _random_circuits(count, seed=20261021):
    rng = np.random.default_rng(seed)
    circuits = []
    while len(circuits) < count:
        g = bigraph.random_epm(rng, int(rng.integers(2, 4)), int(rng.integers(0, 2)),
                               realizable=True)
        try:
            circuits.append(compile_graph(g))
        except CompileError:
            pass
    return circuits


def _no_python_encoder(monkeypatch):
    """Make the pure-Python JSON encoder, which ``indent`` selects, raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps({}, indent=2)


_PRESETS = [("ghz", 2), ("ghz", 3), ("ghz", 4), ("ghz", 5), ("w", 2), ("w", 3),
            ("w", 4), ("type5", 3)]


def test_circuit_json_is_one_line_from_the_c_encoder(monkeypatch):
    circuits = [compile_graph(bigraph.preset(kind, n)) for kind, n in _PRESETS]
    circuits += _random_circuits(50)
    circuits += [to_dual_rail(c) for c in circuits]
    _no_python_encoder(monkeypatch)
    for c in circuits:
        text = serialize_circuit(c)
        assert text.endswith("\n") and "\n" not in text[:-1]
        assert json.loads(text) == _circuit_document(c)
        assert parse_circuit(text) == c
        assert serialize_circuit(parse_circuit(text)) == text


@pytest.mark.parametrize("kind,n", _PRESETS)
@pytest.mark.parametrize("dual_rail", [False, True], ids=["polarization", "dual-rail"])
def test_simulate_report_is_one_line_from_the_c_encoder(tmp_path, capsys, monkeypatch,
                                                        kind, n, dual_rail):
    c = compile_graph(bigraph.preset(kind, n))
    if dual_rail:
        c = to_dual_rail(c)
    _no_python_encoder(monkeypatch)
    path = tmp_path / "c.json"
    path.write_text(serialize_circuit(c))
    code, out, err = run_cli(capsys, "simulate", "--circuit", str(path), "--target", kind,
                             "--n", str(n))
    assert code == 0, err
    assert out.endswith("\n") and "\n" not in out[:-1]
    report = json.loads(out)
    assert report["outcomes"]
    assert out == json.dumps(report, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv,flag", [
    (["verify", "--graph", "g.json", "--target", "ghz", "--n", "2", "--config", "c"],
     "--config"),
    (["report", "--all"], "--all"),
], ids=["config", "all"])
def test_removed_flag_exits_2_through_argparse(capsys, argv, flag):
    # --atol is the one source of the tolerance; report always runs the table
    code, out, err = run_cli(capsys, *argv)
    assert_one_error(code, out, err, f"unrecognized arguments: {flag}")


@pytest.mark.parametrize("argv,fragment", [
    (["compile", "--graph", "g.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["verify", "--graph", "g.json", "--n", "2"], "required: --target"),
    (["simulate", "--circuit", "c.json", "--atol", "abc"], "--atol: invalid float value"),
    ([], "required: command"),
], ids=["unknown-flag", "missing-target", "atol-abc", "no-subcommand"])
def test_bad_command_line_exits_2_with_one_error_line(capsys, argv, fragment):
    code, out, err = run_cli(capsys, *argv)
    assert_one_error(code, out, err, fragment)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--help"])
    assert exit_.value.code == 0
    assert "--target" in capsys.readouterr().out


def test_report_table(capsys):
    code, out, _ = run_cli(capsys, "report", "--max-n", "2")
    lines = out.strip().splitlines()
    assert any(l.startswith("ghz") for l in lines)
    assert any(l.startswith("type5") for l in lines)
    # the W scheme's no-feed-forward column differs from the closed form,
    # so the table exits with the mismatch code
    assert code == 3
    assert any("FAIL" in l and l.startswith("w") for l in lines)
    assert all("PASS" in l for l in lines if l.startswith("ghz"))


def _ghz2_circuit(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    run_cli(capsys, "preset", "--kind", "ghz", "--n", "2", "--out", str(g))
    run_cli(capsys, "compile", "--graph", str(g), "--out", str(c))
    return g, c


def assert_one_error(code, out, err, *fragments):
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert all(f in lines[0] for f in fragments)


def test_only_pattern_bad_json_exits_2(tmp_path, capsys):
    _, c = _ghz2_circuit(tmp_path, capsys)
    code, out, err = run_cli(capsys, "simulate", "--circuit", str(c),
                             "--only-pattern", "{bad")
    assert_one_error(code, out, err, "--only-pattern", "JSON")


def test_only_pattern_not_an_object_exits_2(tmp_path, capsys):
    _, c = _ghz2_circuit(tmp_path, capsys)
    code, out, err = run_cli(capsys, "simulate", "--circuit", str(c),
                             "--only-pattern", "[1]")
    assert_one_error(code, out, err, "--only-pattern", "object")


@pytest.mark.parametrize("wanted", ['{"8": 1, "10": 1}', '{"10": 1, "8": 1, "13": 0}',
                                    '{"8": 1, "10": 1, "15": 0, "13": 0}'])
def test_only_pattern_selects_one_outcome_without_its_zero_counts(tmp_path, capsys, wanted):
    # GHZ 2 detects on wires 8, 10, 13 and 15; a zero count names no photon
    _, c = _ghz2_circuit(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "simulate", "--circuit", str(c), "--only-pattern", wanted)
    assert code == 0
    assert [r["pattern"] for r in json.loads(out)["outcomes"]] == [{"8": 1, "10": 1}]


@pytest.mark.parametrize("wanted,fragment", [
    ('{"8": true, "10": true}', "count True of wire 8"),
    ('{"8": 1.0, "10": 1}', "count 1.0 of wire 8"),
    ('{"8": -1}', "count -1 of wire 8"),
    ('{"8": "1"}', "count '1' of wire 8"),
    ('{"08": 1, "10": 1}', "'08' is not the id of a detector wire"),
    ('{"8": 1, "10": 1, "3": 0}', "'3' is not the id of a detector wire"),
    ('{"a": 1}', "'a' is not the id of a detector wire"),
    ('{" 8": 1}', "' 8' is not the id of a detector wire"),
    ('{"-8": 1}', "'-8' is not the id of a detector wire"),
], ids=["bools", "float", "negative", "string-count", "leading-zero", "not-a-detector",
        "letter", "space", "minus"])
def test_only_pattern_malformed_exits_2(tmp_path, capsys, wanted, fragment):
    # each of these once exited 0 with an empty report, or, for the bools
    # and the float, selected the outcome {"8": 1, "10": 1}
    _, c = _ghz2_circuit(tmp_path, capsys)
    code, out, err = run_cli(capsys, "simulate", "--circuit", str(c), "--only-pattern", wanted)
    assert_one_error(code, out, err, "--only-pattern", fragment)


@pytest.mark.parametrize("max_n", ["1", "0", "-3"])
def test_report_max_n_below_2_exits_2(capsys, max_n):
    code, out, err = run_cli(capsys, "report", "--max-n", max_n)
    assert_one_error(code, out, err, f"--max-n {max_n}", "below 2")


def test_verify_qubit_count_mismatch_exits_2(tmp_path, capsys):
    g, _ = _ghz2_circuit(tmp_path, capsys)
    code, out, err = run_cli(capsys, "verify", "--graph", str(g),
                             "--target", "ghz", "--n", "3")
    assert_one_error(code, out, err, "--n 3", "2 main circles")


def test_verify_target_undefined_at_n_exits_2(tmp_path, capsys):
    g, _ = _ghz2_circuit(tmp_path, capsys)
    code, out, err = run_cli(capsys, "verify", "--graph", str(g),
                             "--target", "type5", "--n", "2")
    assert_one_error(code, out, err, "type5")


def test_simulate_qubit_count_mismatch_exits_2(tmp_path, capsys):
    _, c = _ghz2_circuit(tmp_path, capsys)
    code, out, err = run_cli(capsys, "simulate", "--circuit", str(c),
                             "--target", "ghz", "--n", "3")
    assert_one_error(code, out, err, "--n 3", "2 output modes")


def test_simulate_negative_photons_exits_2(tmp_path, capsys):
    _, c = _ghz2_circuit(tmp_path, capsys)
    doc = json.loads(c.read_text())
    src = next(el for el in doc["elements"] if el["kind"] == "source")
    src["photons"] = -1
    c.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", "--circuit", str(c))
    assert_one_error(code, out, err, "photon count -1")


def _simulate_mutated_dual_rail(tmp_path, capsys, mutate):
    g, _ = _ghz2_circuit(tmp_path, capsys)
    c = tmp_path / "dr.json"
    run_cli(capsys, "compile", "--graph", str(g), "--dual-rail", "--out", str(c))
    doc = json.loads(c.read_text())
    mutate(doc)
    c.write_text(json.dumps(doc))
    return run_cli(capsys, "simulate", "--circuit", str(c))


def _first(doc, kind):
    return next(el for el in doc["elements"] if el["kind"] == kind)


def test_simulate_non_integer_port_wire_exits_2(tmp_path, capsys):
    def mutate(doc):
        _first(doc, "bs")["ports"][0][0] = "x"
    code, out, err = _simulate_mutated_dual_rail(tmp_path, capsys, mutate)
    assert_one_error(code, out, err, "malformed bs element")


def test_simulate_short_swap_pair_exits_2(tmp_path, capsys):
    def mutate(doc):
        mapping = _first(doc, "swap")["mapping"]
        mapping[0] = mapping[0][:1]
    code, out, err = _simulate_mutated_dual_rail(tmp_path, capsys, mutate)
    assert_one_error(code, out, err, "malformed swap element")


def test_simulate_string_detector_count_exits_2(tmp_path, capsys):
    def mutate(doc):
        doc["detector_groups"][0]["count"] = "1"
    code, out, err = _simulate_mutated_dual_rail(tmp_path, capsys, mutate)
    assert_one_error(code, out, err, "detector_groups[0]", "not an integer")


def test_simulate_element_not_an_object_exits_2(tmp_path, capsys):
    def mutate(doc):
        doc["elements"][0] = 3
    code, out, err = _simulate_mutated_dual_rail(tmp_path, capsys, mutate)
    assert_one_error(code, out, err, "elements[0]", "expected an object")


@pytest.mark.parametrize("mutate,fragment", [
    (lambda doc: doc["wires"][0].update(id="x"), "wires[0].id"),
    (lambda doc: doc["detector_groups"][0].update(id=[1]), "detector_groups[0].id"),
    (lambda doc: doc["detector_groups"][0]["wires"].__setitem__(0, "x"),
     "detector_groups[0].wires"),
    (lambda doc: doc["outputs"].__setitem__(0, "1"), "outputs"),
    (lambda doc: doc["detector_groups"][0]["wires"].__setitem__(0, 999),
     "undeclared wire 999"),
    # the herald filter counted such a wire once and the outcomes twice
    (lambda doc: doc["detector_groups"][0].update(wires=[8, 8]),
     "detector group 1 repeats a wire"),
], ids=["wire-id", "group-id", "group-wire", "output-wire", "undeclared-group-wire",
        "repeated-group-wire"])
def test_simulate_malformed_wire_ids_exit_2(tmp_path, capsys, mutate, fragment):
    code, out, err = _simulate_mutated_dual_rail(tmp_path, capsys, mutate)
    assert_one_error(code, out, err, fragment)


def _simulate_mutated_target(tmp_path, capsys, mutate):
    _, c = _ghz2_circuit(tmp_path, capsys)
    doc = json.loads(c.read_text())
    mutate(doc)
    c.write_text(json.dumps(doc))
    return run_cli(capsys, "simulate", "--circuit", str(c), "--target", "ghz")


def test_simulate_output_mode_channel_renamed_exits_2(tmp_path, capsys):
    def mutate(doc):
        mode = doc["output_modes"][0]
        wire = next(w for w in doc["wires"]
                    if w["mode"] == mode and w["channel"] == "H")
        wire["channel"] = "X"
    code, out, err = _simulate_mutated_target(tmp_path, capsys, mutate)
    assert_one_error(code, out, err, "output mode", "['V', 'X']")


def test_simulate_output_mode_naming_no_mode_exits_2(tmp_path, capsys):
    def mutate(doc):
        doc["output_modes"][0] = "nowhere"
    code, out, err = _simulate_mutated_target(tmp_path, capsys, mutate)
    assert_one_error(code, out, err, "output mode 'nowhere'", "[]")


def test_simulate_wave_plate_on_one_wire_exits_2(tmp_path, capsys):
    # its two rules collapse into one, which zeroes the state
    def mutate(doc):
        hwp = doc["elements"][4]
        assert hwp["kind"] == "hwp"
        hwp["v"] = hwp["h"]
    code, out, err = _simulate_mutated_target(tmp_path, capsys, mutate)
    assert_one_error(code, out, err, "element 4 (hwp)", "repeats a wire")


def test_simulate_pbs_repeating_a_wire_exits_2(tmp_path, capsys):
    def mutate(doc):
        pbs = _first(doc, "pbs")
        pbs["b_v"] = pbs["a_v"]
    code, out, err = _simulate_mutated_target(tmp_path, capsys, mutate)
    assert_one_error(code, out, err, "(pbs)", "repeats a wire")


@pytest.mark.parametrize("mutate,fragment", [
    (lambda doc: doc["wires"][1].update(id=True), "wires[1].id"),
    (lambda doc: doc["detector_groups"][0].update(id=True), "detector_groups[0].id"),
    (lambda doc: doc["detector_groups"][0]["wires"].__setitem__(0, True),
     "detector_groups[0].wires"),
    (lambda doc: doc["detector_groups"][0].update(count=True),
     "detector_groups[0].count"),
    (lambda doc: doc["outputs"].__setitem__(0, True), "outputs"),
    (lambda doc: _first(doc, "source").update(photons=True), "photons: True"),
    (lambda doc: _first(doc, "source").update(wire=False), "wire: False"),
    (lambda doc: _first(doc, "hwp").update(v=True), "v: True"),
    (lambda doc: _first(doc, "hwp").update(h=1.5), "h: 1.5"),
    (lambda doc: _first(doc, "pbs").update(b_v=True), "b_v: True"),
    (lambda doc: _first(doc, "pbs").update(a_h=1.5), "a_h: 1.5"),
    (lambda doc: _first(doc, "swap")["mapping"][0].__setitem__(1, True), "mapping: True"),
    (lambda doc: _first(doc, "swap")["mapping"][0].__setitem__(0, 1.5), "mapping: 1.5"),
], ids=["wire-id", "group-id", "group-wire", "count", "output-wire", "photons",
        "source-wire", "hwp-true", "hwp-fraction", "pbs-true", "pbs-fraction",
        "swap-true", "swap-fraction"])
def test_simulate_boolean_integer_field_exits_2(tmp_path, capsys, mutate, fragment):
    code, out, err = _simulate_mutated_target(tmp_path, capsys, mutate)
    assert_one_error(code, out, err, fragment)


@pytest.mark.parametrize("kind,field,value,fragment", [
    ("source", "stage", 5, "stage 5 is not one of source"),
    ("source", "stage", None, "stage None"),
    ("hwp", "stage", "bogus", "stage 'bogus'"),
    ("hwp", "mode", None, "mode: None is not a string"),
    ("hwp", "mode", 7, "mode: 7 is not a string"),
    ("hwp", "mode", ["1"], "mode: ['1'] is not a string"),
    ("pbs", "mode_a", 7, "mode_a: 7 is not a string"),
    ("pbs", "mode_b", None, "mode_b: None is not a string"),
])
def test_simulate_malformed_stage_or_mode_exits_2(tmp_path, capsys, kind, field, value,
                                                  fragment):
    code, out, err = _simulate_mutated_target(
        tmp_path, capsys, lambda doc: _first(doc, kind).update({field: value}))
    assert_one_error(code, out, err, fragment)


def test_simulate_merge_kind_is_unknown_exits_2(tmp_path, capsys):
    # a return is merged by a PBS; "merge" names a stage, not an element kind
    merge = {"kind": "merge", "mode": "1", "mapping": [], "stage": "merge"}
    code, out, err = _simulate_mutated_target(
        tmp_path, capsys, lambda doc: doc["elements"].append(merge))
    assert_one_error(code, out, err, "unknown element kind 'merge'")


def test_simulate_element_without_stage_takes_its_default(tmp_path, capsys):
    code, _, err = _simulate_mutated_target(
        tmp_path, capsys, lambda doc: [el.pop("stage") for el in doc["elements"]])
    assert code == 0, err
    # the default is the element's own, so the parsed circuit serializes to
    # JSON that parses again
    doc = json.loads(serialize_circuit(compile_graph(ghz(2))))
    for el in doc["elements"]:
        el.pop("stage")
    c = parse_circuit(json.dumps(doc))
    assert [el.stage for el in c.elements] == [type(el).stage for el in c.elements]
    assert parse_circuit(serialize_circuit(c)) == c


@pytest.mark.parametrize("kind", ["bs", "swap"])
@pytest.mark.parametrize("value", [True, 1.5])
def test_simulate_non_integer_dual_rail_wire_exits_2(tmp_path, capsys, kind, value):
    def mutate(doc):
        el = _first(doc, kind)
        (el["ports"] if kind == "bs" else el["mapping"])[-1][-1] = value
    code, out, err = _simulate_mutated_dual_rail(tmp_path, capsys, mutate)
    assert_one_error(code, out, err, f"malformed {kind} element", f"{value!r}")


def _ancilla_wire(doc):
    return next(w for w in doc["wires"] if w["mode"] not in doc["output_modes"])


@pytest.mark.parametrize("mutate,message", [
    # read once without a type check: "12" simulated as the modes "1" and
    # "2", and a non-string name or ancilla wire passed
    (lambda doc: doc.update(output_modes="12"), "output_modes: '12' is not a list"),
    (lambda doc: doc["output_modes"].__setitem__(0, 1), "output_modes: 1 is not a string"),
    (lambda doc: doc.update(name=[1, 2]), "name: [1, 2] is not a string"),
    (lambda doc: _ancilla_wire(doc).update(mode=7), "wires[{i}].mode: 7 is not a string"),
    (lambda doc: _ancilla_wire(doc).update(channel=7),
     "wires[{i}].channel: 7 is not a string"),
], ids=["output-modes-string", "output-mode-integer", "name-list", "wire-mode",
        "wire-channel"])
def test_simulate_non_string_name_or_mode_exits_2(tmp_path, capsys, mutate, message):
    doc = json.loads(serialize_circuit(compile_graph(ghz(2))))
    i = doc["wires"].index(_ancilla_wire(doc))
    code, out, err = _simulate_mutated_target(tmp_path, capsys, mutate)
    assert_one_error(code, out, err)
    assert err == f"error: {tmp_path / 'c.json'}: {message.format(i=i)}\n"


# The first element of each kind in the W 3 circuit, with the messages each
# change to it gave when each kind's fields were read by reflection.
_KIND_ERRORS = {
    # kind: (required field, an integer field set to true, its message)
    "source": ("wire", "wire", "wire: True is not an integer"),
    "hwp": ("mode", "h", "h: True is not an integer"),
    "uhwp": ("mode", "h", "h: True is not an integer"),
    "pbs": ("mode_a", "a_h", "a_h: True is not an integer"),
    "bs": ("ports", "ports", "ports: True is not an integer"),
    "multiport": ("ports", "ports", "ports: True is not an integer"),
    "swap": ("mapping", "mapping", "mapping: True is not an integer"),
}


def _set_integer_true(el, name):
    if name == "ports":
        el["ports"][0][0] = True
    elif name == "mapping":
        el["mapping"][0][0] = True
    else:
        el[name] = True


@pytest.mark.parametrize("kind", sorted(_KIND_ERRORS))
@pytest.mark.parametrize("case", ["missing", "true", "stage"])
def test_element_schema_errors_name_the_kind_and_field(tmp_path, capsys, kind, case):
    doc = json.loads(serialize_circuit(compile_graph(w(3))))
    i, el = next((i, el) for i, el in enumerate(doc["elements"]) if el["kind"] == kind)
    required, integer, true_message = _KIND_ERRORS[kind]
    if case == "missing":
        del el[required]
        message = f"malformed {kind} element ('{required}')"
    elif case == "true":
        _set_integer_true(el, integer)
        message = f"malformed {kind} element ({true_message})"
    else:
        el["stage"] = "bogus"
        message = ("stage 'bogus' is not one of source, prep, split, route, "
                   "subtract, merge, mix")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", "--circuit", str(path))
    assert_one_error(code, out, err)
    assert err == f"error: {path}: elements[{i}]: {message}\n"


def test_simulate_validates_the_circuit_once(tmp_path, capsys, monkeypatch):
    calls = []
    validate = circuit.validate

    def counting(c):
        calls.append(c)
        return validate(c)

    # at the command level and inside run_heralded
    monkeypatch.setattr(circuit, "validate", counting)
    monkeypatch.setattr(sim, "validate", counting)
    _, c = _ghz2_circuit(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "simulate", "--circuit", str(c), "--target", "ghz")
    assert code == 0 and len(json.loads(out)["outcomes"]) == 4
    assert len(calls) == 1


def test_simulate_herald_leaving_photons_off_the_outputs_exits_2(tmp_path, capsys):
    # without its detector group, the second subtractor's tap-off wires
    # keep their photons
    def mutate(doc):
        del doc["detector_groups"][1]
    code, out, err = _simulate_mutated_target(tmp_path, capsys, mutate)
    assert_one_error(code, out, err, "non-output wires [10, 15]")


def test_simulate_residual_not_one_photon_per_mode_exits_2(tmp_path, capsys):
    def mutate(doc):
        doc["elements"].append({"kind": "source", "stage": "source",
                                "wire": doc["outputs"][0], "photons": 1})
    code, out, err = _simulate_mutated_target(tmp_path, capsys, mutate)
    assert_one_error(code, out, err, "not one boson per mode")


def test_report_atol_does_not_loosen_the_closed_forms(capsys):
    # W 4's P_no_ff is simulated 1/4096 against a stated 1/2048: 2.4e-4
    # apart, inside a fidelity tolerance of 1e-3, but not the same number
    code, out, _ = run_cli(capsys, "report", "--max-n", "4", "--atol", "1e-3")
    rows = {tuple(l.split()[:2]): l.split()[-1] for l in out.splitlines()}
    assert rows[("w", "4")] == "FAIL" and rows[("ghz", "4")] == "PASS"
    assert code == 3


def test_report_max_n_bounds_w_too(capsys):
    code, out, _ = run_cli(capsys, "report", "--max-n", "5")
    rows = [l.split()[:2] for l in out.splitlines()]
    assert ["w", "5"] in rows and ["ghz", "5"] in rows
    assert ["w", "6"] not in rows
    # W's no-feed-forward column stays red as stated
    assert code == 3


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "1"], ids="flag-{}".format)
def test_atol_outside_zero_to_one_exits_2(tmp_path, capsys, value):
    g, _ = _ghz2_circuit(tmp_path, capsys)
    code, out, err = run_cli(capsys, "verify", "--graph", str(g), "--target",
                             "ghz", "--n", "2", f"--atol={value}")
    assert_one_error(code, out, err, "atol")


@pytest.mark.parametrize("value", ["0", "1e-13"])
def test_atol_below_the_drop_tolerance_exits_2(tmp_path, capsys, value):
    # below fock.DROP_TOL float rounding decides classification: at --atol 0
    # W 3 read P_ff = 1/96 and 16/24 correctable instead of 1/64
    g = tmp_path / "w3.json"
    run_cli(capsys, "preset", "--kind", "w", "--n", "3", "--out", str(g))
    code, out, err = run_cli(capsys, "verify", "--graph", str(g), "--target",
                             "w", "--n", "3", f"--atol={value}")
    assert_one_error(code, out, err, "atol", "1e-12")


def test_simulate_n_without_target_exits_2(tmp_path, capsys):
    _, c = _ghz2_circuit(tmp_path, capsys)
    code, out, err = run_cli(capsys, "simulate", "--circuit", str(c), "--n", "2")
    assert_one_error(code, out, err, "--n needs --target")


def _legs(doc):
    return [leg for dot in doc["dots"] for leg in dot["legs"]]


@pytest.mark.parametrize("mutate,fragment", [
    (lambda doc: _legs(doc)[0].update(mode="9"), "unknown circle '9'"),
    (lambda doc: doc.update(n_main=1), "unknown circle '2'"),
    (lambda doc: doc.update(n_main=True), "n_main"),
    (lambda doc: _legs(doc)[0].update(state=["+"]), "dots[0].legs[0].state"),
    (lambda doc: _legs(doc)[0].update(state={"+": 1}), "dots[0].legs[0].state"),
    (lambda doc: doc["dots"][1].update(id=doc["dots"][0]["id"]), "dots[1].id"),
    (lambda doc: _legs(doc)[0].update(amplitude=[math.nan, 0.0]), "dot 1: per-dot"),
    (lambda doc: _legs(doc)[0].update(phase=math.inf), "dot 1: per-dot"),
    (lambda doc: doc.update(name=5), "name: expected a string"),
    (lambda doc: doc.update(name=True), "name: expected a string"),
    (lambda doc: doc.update(name=1.5), "name: expected a string"),
    (lambda doc: doc.update(name=["x"]), "name: expected a string"),
], ids=["undeclared-circle", "n-main-too-small", "n-main-true", "state-list",
        "state-object", "duplicate-dot-id", "nan-amplitude", "infinite-phase",
        "name-int", "name-true", "name-float", "name-list"])
@pytest.mark.parametrize("command", ["compile", "verify"])
def test_malformed_graph_exits_2(tmp_path, capsys, command, mutate, fragment):
    g, _ = _ghz2_circuit(tmp_path, capsys)
    doc = json.loads(g.read_text())
    mutate(doc)
    g.write_text(json.dumps(doc))
    extra = ["--target", "ghz", "--n", "2"] if command == "verify" else []
    code, out, err = run_cli(capsys, command, "--graph", str(g), *extra)
    assert_one_error(code, out, err, str(g), fragment)


@pytest.mark.parametrize("command", ["compile", "verify"])
def test_circle_named_like_a_compiler_location_exits_2(tmp_path, capsys, command):
    # "1.lo" is where the compiler splits main circle 1's lower path
    g = tmp_path / "g.json"
    g.write_text(serialize_graph(w(2)).replace('"X"', '"1.lo"'))
    extra = ["--target", "w", "--n", "2"] if command == "verify" else []
    code, out, err = run_cli(capsys, command, "--graph", str(g), *extra)
    assert_one_error(code, out, err, "circle '1.lo'", "rename it")
    assert "internal" not in err


def test_verify_graph_without_matchings_exits_2(tmp_path, capsys):
    # W 2 without its last dot is not EPM; its oracle state has photons
    # outside the qubit rails, and the compiler rejects it first
    g = tmp_path / "g.json"
    run_cli(capsys, "preset", "--kind", "w", "--n", "2", "--out", str(g))
    doc = json.loads(g.read_text())
    del doc["dots"][-1]
    g.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--graph", str(g), "--target", "w", "--n", "2")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert lines and all(l.startswith("error: ") and "EPM pattern" in l for l in lines)


def test_verify_zero_oracle_state_exits_3(tmp_path, capsys):
    # a compilable realizable graph whose subtractions annihilate the state:
    # dots 2 and 3 take mode 2's |+> and |-> alone, and a_+ a_- kills its pair
    r2, r3 = 1 / math.sqrt(2), 1 / math.sqrt(3)
    plus, minus, zero = InternalState.plus(), InternalState.minus(), InternalState.zero()
    g = SculptingBigraph(2, ("A", "B"), (
        Edge("1", 1, r3, plus), Edge("1", 4, -r2, minus),
        Edge("2", 2, 1.0, plus), Edge("2", 3, -1.0, minus),
        Edge("A", 1, r3, zero), Edge("B", 1, r3, zero), Edge("B", 4, r2, zero)))
    path = tmp_path / "g.json"
    path.write_text(serialize_graph(g))
    assert run_cli(capsys, "compile", "--graph", str(path))[0] == 0
    code, out, err = run_cli(capsys, "verify", "--graph", str(path), "--target", "ghz",
                             "--n", "2")
    assert code == 3 and out == ""
    assert err.splitlines() == [f"error: {path}: zero state has no qubit reading"]


_DELETE = object()
_FUZZ_INPUTS = {
    # name -> (input JSON, the commands to run on it)
    "ghz2-graph": (json.loads(serialize_graph(ghz(2))),
                   [["compile"], ["verify", "--target", "ghz", "--n", "2"]]),
    "w2-graph": (json.loads(serialize_graph(w(2))),
                 [["compile"], ["verify", "--target", "w", "--n", "2"]]),
    "ghz2-circuit": (json.loads(serialize_circuit(compile_graph(ghz(2)))),
                     [["simulate", "--target", "ghz"]]),
}


def _fields(node, path=()):
    """Paths to every dict value and list item under node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


@st.composite
def mutated_inputs(draw):
    """One of the GHZ 2 / W 2 graphs or the GHZ 2 circuit with one or two
    fields replaced by an odd value or deleted, and the commands to run on it."""
    doc, commands = _FUZZ_INPUTS[draw(st.sampled_from(sorted(_FUZZ_INPUTS)))]
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_fields(doc))))
        value = draw(st.sampled_from([_DELETE, None, True, 1.5, -1, 0, "x", [], {}]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc, commands


@given(mutated_inputs())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_input_json_never_crashes(tmp_path, capsys, case):
    doc, commands = case
    path = tmp_path / "input.json"
    circuit = tmp_path / "circuit.json"
    path.write_text(json.dumps(doc))
    for command, *rest in commands:
        flag = "--circuit" if command == "simulate" else "--graph"
        out = ["--out", str(circuit)] if command == "compile" else []
        code, _, err = run_cli(capsys, command, flag, str(path), *rest, *out)
        assert code in (0, 2, 3)
        assert all(line.startswith("error: ") for line in err.splitlines())
        if command == "compile" and code == 0:
            # every circuit the compiler writes is one that simulate reads
            code, _, err = run_cli(capsys, "simulate", "--circuit", str(circuit))
            assert code in (0, 3), err
