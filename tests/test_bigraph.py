"""Graph model: classification, matchings, presets, serialization."""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from helpers import (scan_circles, scan_dot_ids, scan_edges_of_circle, scan_edges_of_dot,
                     scan_main_labels)
from sculpt import bigraph
from sculpt.bigraph import (Edge, EpmPattern, GraphSchemaError, InternalState,
                            SculptingBigraph, classify_circle, ghz,
                            graph_to_dot, is_epm, parse_graph,
                            perfect_matchings, preset, serialize_graph, type5, w)

R2 = 1.0 / math.sqrt(2.0)


def brute_force_matchings(g: SculptingBigraph) -> set[frozenset[int]]:
    """Independent oracle: enumerate all edge subsets, keep the covers."""
    dots = set(g.dot_ids())
    circles = {c.label for c in g.circles()}
    found = set()
    for r in range(len(dots), len(dots) + 1):
        for combo in itertools.combinations(range(len(g.edges)), r):
            used_d = [g.edges[i].dot for i in combo]
            used_c = [g.edges[i].mode for i in combo]
            if (len(set(used_d)) == len(used_d) and set(used_d) == dots
                    and len(set(used_c)) == len(used_c) and set(used_c) == circles):
                found.add(frozenset(combo))
    return found


def test_internal_state_constructors():
    assert InternalState.plus().name == "+"
    assert InternalState.minus().name == "-"
    assert InternalState.named("0").name == "0"
    custom = InternalState(0.6, 0.8)
    assert custom.name == "custom"
    with pytest.raises(ValueError):
        InternalState(1.0, 1.0)


@pytest.mark.parametrize("name", ["0", "1", "+", "-"])
def test_named_states_keep_their_names(name):
    state = InternalState.named(name)
    assert state.name == name
    # a state built afresh, or rotated by less than ATOL, still gets the name
    assert InternalState(state.alpha, state.beta).name == name
    t = 0.5 * bigraph.ATOL
    near = InternalState(state.alpha * math.cos(t) - state.beta * math.sin(t),
                         state.alpha * math.sin(t) + state.beta * math.cos(t))
    assert near != state and near.name == name


def test_ghz_preset_structure():
    g = ghz(3)
    assert g.n_main == 3 and len(g.ancillas) == 0
    assert len(g.dot_ids()) == 3 and len(g.edges) == 6
    assert is_epm(g)
    for c in g.circles():
        assert classify_circle(g, c.label) is EpmPattern.A
    # dot j: (a_{j,+} - a_{j+1,-})/r2
    for j in g.dot_ids():
        by_state = {e.state.name: (e.mode, e.amplitude) for e in g.edges_of_dot(j)}
        assert by_state["+"][0] == str(j)
        assert by_state["-"][0] == str(j % 3 + 1)
        assert abs(by_state["+"][1] - R2) < 1e-12
        assert abs(by_state["-"][1] + R2) < 1e-12


def test_w_preset_structure():
    g = w(3)
    assert len(g.ancillas) == 1 and len(g.dot_ids()) == 4
    assert classify_circle(g, "X") is EpmPattern.B
    assert is_epm(g)
    final = g.edges_of_dot(g.dot_ids()[3])
    assert all(e.state.name == "-" for e in final)
    assert all(abs(e.amplitude - 1 / math.sqrt(3)) < 1e-12 for e in final)


def test_type5_preset_structure():
    g = type5()
    assert g.n_main == 3 and len(g.ancillas) == 3 and len(g.dot_ids()) == 6
    assert len(g.edges) == 14
    assert is_epm(g)
    assert sorted(c.label for c in g.circles()) == ["1", "2", "3", "X", "Y", "Z"]
    # the pi-phase legs carry -1 coefficients
    for dot in (4, 5, 6):
        minus_legs = [e.amplitude for e in g.edges_of_dot(dot) if e.state.name == "-"]
        assert len(minus_legs) == 1 and minus_legs[0].real < 0


def test_classify_rejects_wrong_patterns():
    g = ghz(3)
    # recolor one edge to |0>: its circle loses pattern A
    edges = list(g.edges)
    edges[0] = Edge(edges[0].mode, edges[0].dot, edges[0].amplitude, InternalState.zero())
    bad = SculptingBigraph(3, (), tuple(edges))
    assert classify_circle(bad, edges[0].mode) is EpmPattern.NON_EPM
    assert not is_epm(bad)


def test_classify_main_single_zero_edge():
    g = SculptingBigraph(1, (), (Edge("1", 1, 1.0, InternalState.zero()),))
    assert classify_circle(g, "1") is EpmPattern.NON_EPM


def test_classify_unknown_circle():
    with pytest.raises(KeyError):
        classify_circle(ghz(2), "nope")


def test_empty_graph_vacuously_epm():
    assert is_epm(SculptingBigraph(0, (), ()))


def test_parallel_ancilla_edges_rejected_unless_lenient():
    r3 = 1.0 / math.sqrt(3.0)
    edges = (Edge("1", 1, r3, InternalState.plus()),
             Edge("1", 2, 1.0, InternalState.minus()),
             Edge("A", 1, r3, InternalState.zero()),
             Edge("A", 1, r3, InternalState.zero()))
    g = SculptingBigraph(1, ("A",), edges)
    assert classify_circle(g, "A") is EpmPattern.NON_EPM
    assert not is_epm(g)


def test_classify_invariant_under_dot_relabeling():
    g = w(3)
    mapping = {1: 4, 2: 3, 3: 2, 4: 1}
    edges = tuple(Edge(e.mode, mapping[e.dot], e.amplitude, e.state)
                  for e in reversed(g.edges))
    h = SculptingBigraph(g.n_main, g.ancillas, edges)
    for c in g.circles():
        assert classify_circle(g, c.label) == classify_circle(h, c.label)


def test_preset_normalization():
    for g in (ghz(4), w(4), type5()):
        for dot in g.dot_ids():
            legs = g.edges_of_dot(dot)
            assert abs(sum(abs(e.amplitude) ** 2 for e in legs) - 1.0) < 1e-9


def test_subtraction_operators_normalization_error():
    with pytest.raises(ValueError, match="normalization"):
        SculptingBigraph(1, (), (Edge("1", 1, 0.7, InternalState.plus()),
                                Edge("1", 1, 0.4, InternalState.minus())))


def test_nan_amplitude_is_rejected():
    # abs(nan - 1) > ATOL is false, so the test must be written the other
    # way round; verify_scheme used to report P_ff = 0 with no error
    g = ghz(2)
    first = g.edges[0]
    with pytest.raises(ValueError, match="normalization"):
        SculptingBigraph(2, (), (Edge(first.mode, first.dot, complex(math.nan, 0),
                                      first.state),) + g.edges[1:])
    with pytest.raises(ValueError, match="not normalized"):
        InternalState(complex(math.nan, 0), 0.0)


def test_ghz_matchings_count_and_brute_force():
    for n in (2, 3, 4):
        g = ghz(n)
        pms = perfect_matchings(g)
        assert len(pms) == 2
        assert {frozenset(pm) for pm in pms} == brute_force_matchings(g)


def test_w_matchings_count_and_brute_force():
    for n in (2, 3):
        g = w(n)
        pms = perfect_matchings(g)
        assert len(pms) == n
        assert {frozenset(pm) for pm in pms} == brute_force_matchings(g)


def test_type5_matchings_against_brute_force():
    g = type5()
    pms = perfect_matchings(g)
    assert len(pms) == 5
    assert {frozenset(pm) for pm in pms} == brute_force_matchings(g)


def test_isolated_dot_has_no_matching():
    edges = (Edge("1", 1, R2, InternalState.plus()),
             Edge("1", 2, R2, InternalState.minus()),
             Edge("2", 1, R2, InternalState.plus()),
             Edge("2", 2, -R2, InternalState.minus()),
             Edge("A", 3, 1.0, InternalState.zero()))
    # dot 3 reachable only through A, but then circles 1,2 fight over dots 1,2
    g = SculptingBigraph(2, ("A",), edges)
    assert perfect_matchings(g) == [] or all(
        len(pm) == 3 for pm in perfect_matchings(g))
    lone = SculptingBigraph(2, (), edges[:4] + (Edge("2", 3, 1.0, InternalState.minus()),))
    # dot 3 exists but circles cannot cover three dots
    assert perfect_matchings(lone) == []


def test_random_epm_graphs_are_epm():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = bigraph.random_epm(rng, int(rng.integers(2, 4)), int(rng.integers(0, 3)))
        assert is_epm(g)
        assert len(g.edges) <= 12
        for dot in g.dot_ids():
            legs = g.edges_of_dot(dot)
            assert abs(sum(abs(e.amplitude) ** 2 for e in legs) - 1.0) < 1e-9


def test_matchings_random_graphs_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = bigraph.random_epm(rng, 2, 1)
        assert {frozenset(pm) for pm in perfect_matchings(g)} == brute_force_matchings(g)


def test_serialization_roundtrip():
    for g in (ghz(3), w(3), type5()):
        text = serialize_graph(g)
        h = parse_graph(text)
        assert serialize_graph(h) == text
        assert h.n_main == g.n_main and h.ancillas == g.ancillas
        assert len(h.edges) == len(g.edges)
        for a, b in zip(sorted(g.edges, key=lambda e: (e.dot, e.mode)),
                        sorted(h.edges, key=lambda e: (e.dot, e.mode))):
            assert a.mode == b.mode and a.dot == b.dot
            assert abs(a.amplitude - b.amplitude) < 1e-12
            assert a.state.isclose(b.state)


# perfbench prints a SHA-256 over the graph JSON it writes, so that two runs
# can be shown to use the same inputs; that digest depends on these bytes.
@pytest.mark.parametrize("kind,n,digest", [
    ("ghz", 2, "3cde705dceb8fff979f48d3935aed3bcd7b72a4d8b423852923e07734f3d2b70"),
    ("w", 3, "6267b916c2b89bf55f4730c78cf428208c277698a44fe947b76d430553a63ecd"),
    ("type5", 3, "7b28022e2f3ec98c1452d080d8d1efbbbebde5bcbc21ac3f099ba3266554a12f"),
])
def test_serialized_graph_bytes_are_pinned(kind, n, digest):
    text = serialize_graph(preset(kind, n))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_parse_rejects_bad_normalization():
    import json

    doc = json.loads(serialize_graph(ghz(2)))
    doc["dots"][0]["legs"][0]["amplitude"] = [0.5, 0.0]
    with pytest.raises(GraphSchemaError) as err:
        parse_graph(json.dumps(doc))
    assert "normalization" in str(err.value)


def test_parse_rejects_unknown_state():
    with pytest.raises(GraphSchemaError) as err:
        parse_graph('{"n_main": 1, "ancillas": [], "dots": '
                    '[{"id": 1, "legs": [{"mode": "1", "state": "q", '
                    '"amplitude": [1, 0]}]}]}')
    assert "state" in str(err.value)


def test_custom_state_roundtrip():
    s = InternalState(0.6, 0.8j)
    g = SculptingBigraph(1, (), (Edge("1", 1, R2, InternalState.plus()),
                                 Edge("1", 1, -R2, InternalState.minus()),
                                 Edge("1", 2, 1.0, s)))
    h = parse_graph(serialize_graph(g))
    custom = next(e for e in h.edges if e.state.name == "custom")
    assert custom.state.isclose(s)


def test_parse_phase_field():
    g = parse_graph('{"n_main": 1, "ancillas": [], "dots": '
                    '[{"id": 1, "legs": [{"mode": "1", "state": "+", '
                    '"amplitude": [1, 0], "phase": 3.141592653589793}]}]}')
    assert abs(g.edges[0].amplitude + 1.0) < 1e-12


def test_preset_dispatch_and_errors():
    assert preset("ghz", 4).n_main == 4
    assert len(preset("type5").ancillas) == 3
    with pytest.raises(ValueError):
        preset("ghz", 1)
    with pytest.raises(ValueError):
        preset("type5", 4)
    with pytest.raises(ValueError):
        preset("nope", 3)


def test_dot_export_mentions_all_vertices():
    g = type5()
    dot = graph_to_dot(g)
    for label in ("1", "2", "3", "X", "Y", "Z"):
        assert f'"c{label}"' in dot
    assert dot.count("->") == len(g.edges)


def _view_graphs():
    """The presets, then 200 random EPM draws of 2-4 main circles and 0-3
    ancillas, half with realizable amplitudes."""
    yield from (ghz(2), ghz(5), w(2), w(4), type5(), SculptingBigraph(0, (), ()))
    rng = np.random.default_rng(20261026)
    for i in range(200):
        yield bigraph.random_epm(rng, int(rng.integers(2, 5)), int(rng.integers(0, 4)),
                                 realizable=bool(i % 2))


def test_views_equal_their_scan_definitions():
    for g in _view_graphs():
        labels = scan_main_labels(g) + list(g.ancillas)
        assert g.main_labels() == scan_main_labels(g)
        assert g.circles() == scan_circles(g)
        assert [g.circle(l) for l in labels] == scan_circles(g)
        assert g.dot_ids() == scan_dot_ids(g)
        for label in labels + ["nope"]:
            assert g.edges_of_circle(label) == scan_edges_of_circle(g, label)
        for dot in scan_dot_ids(g) + [-1]:
            assert g.edges_of_dot(dot) == scan_edges_of_dot(g, dot)


def test_mutating_a_view_leaves_the_graph_alone():
    g = type5()
    for view in (g.main_labels(), g.circles(), g.dot_ids(), g.edges_of_circle("X"),
                 g.edges_of_dot(5)):
        view.clear()
    assert g.main_labels() == scan_main_labels(g)
    assert g.circles() == scan_circles(g)
    assert g.dot_ids() == scan_dot_ids(g)
    assert g.edges_of_circle("X") == scan_edges_of_circle(g, "X") != []
    assert g.edges_of_dot(5) == scan_edges_of_dot(g, 5) != []


@pytest.mark.parametrize("field,value", [("n_main", 4), ("ancillas", ("Q",)),
                                         ("edges", ()), ("name", "other")])
def test_graph_fields_cannot_be_assigned(field, value):
    g = w(3)
    g.main_labels()  # a view derived before the attempt stays true
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(g, field, value)
    assert g == w(3) and g.main_labels() == scan_main_labels(g)
