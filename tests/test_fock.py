"""Ladder algebra, projections, the ladder kernel, substitution and
wire permutations against their naive references, and the core boson
identities."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import (add_scaled, amplitude, annihilate, apply_operator, create, from_counts,
                     inner, naive_relabel, naive_substitute, total_photons)
from sculpt import fock, sim
from sculpt.circuit import Swap
from sculpt.fock import FockState

R2 = 1.0 / math.sqrt(2.0)


def ket(**counts) -> FockState:
    return from_counts({int(k[1:]): v for k, v in counts.items()})


def up(state: FockState, w: int) -> FockState:
    return fock.ladder(state, [(w, 1.0)], create=True)


def down(state: FockState, w: int) -> FockState:
    return fock.ladder(state, [(w, 1.0)])


def test_create_on_vacuum():
    s = up(FockState.vacuum(), 0)
    assert fock.allclose(s, ket(w0=1))


def test_create_sqrt_factor():
    s = up(ket(w0=1), 0)
    assert abs(amplitude(s, {0: 2}) - math.sqrt(2)) < 1e-12


def test_create_distinct_wires_commute():
    a = up(up(FockState.vacuum(), 0), 1)
    b = up(up(FockState.vacuum(), 1), 0)
    assert fock.allclose(a, b)
    assert fock.allclose(a, ket(w0=1, w1=1))


def test_annihilate_vacuum_is_zero():
    assert down(FockState.vacuum(), 3).is_zero()


def test_annihilate_twice_single_photon():
    s = down(down(ket(w0=1), 0), 0)
    assert s.is_zero()


def test_plus_subtraction_on_pair():
    # (a_0 + a_1)/r2 applied to a0† a1† |vac> leaves (a1† + a0†)/r2.
    pair = ket(w0=1, w1=1)
    out = fock.ladder(pair, [(0, R2), (1, R2)])
    expect = add_scaled(fock.scale(ket(w1=1), R2), R2, ket(w0=1))
    assert fock.allclose(out, expect)


def test_minus_subtraction_gives_minus_state():
    # (a_0 - a_1)/r2 on the pair = -(a0† - a1†)/r2.
    pair = ket(w0=1, w1=1)
    out = fock.ladder(pair, [(0, R2), (1, -R2)])
    expect = add_scaled(fock.scale(ket(w0=1), -R2), R2, ket(w1=1))
    assert fock.allclose(out, expect)


def test_plus_then_minus_annihilates_pair():
    pair = ket(w0=1, w1=1)
    out = fock.ladder(pair, [(0, R2), (1, -R2)])
    out = fock.ladder(out, [(0, R2), (1, R2)])
    assert out.is_zero()


def test_double_subtraction_of_single_boson_vanishes():
    # a^n on a singly occupied wire is zero for n > 1.
    one = ket(w0=1)
    out = down(down(one, 0), 0)
    assert out.is_zero()
    out2 = fock.ladder(fock.ladder(one, [(0, 1.0)]), [(0, 1.0)])
    assert out2.is_zero()


def test_ladder_legs_on_one_wire_add_up_and_cancel():
    s = ket(w0=2, w1=1)
    twice = fock.ladder(s, [(0, 0.25), (1, 0.5), (0, 0.75)])
    assert fock.allclose(twice, fock.ladder(s, [(0, 1.0), (1, 0.5)]))
    assert fock.ladder(s, [(0, 1.0), (0, -1.0)], create=True).is_zero()


def test_ladder_skips_negligible_legs():
    # a leg below DROP_TOL acts as no leg at all, in both directions, even
    # where its product with a large amplitude would be kept
    s = from_counts({0: 1, 1: 1}, 1e3)
    assert dict(fock.ladder(s, [(0, 0.0), (1, 1e-13)]).terms()) == {}
    assert dict(fock.ladder(s, [(0, 1.0), (1, 1e-13)], create=True).terms()) == {
        ((0, 2), (1, 1)): 1e3 * math.sqrt(2)}


def test_add_scaled_zero_scale():
    s = ket(w0=1)
    t = ket(w1=2)
    assert fock.allclose(add_scaled(s, 0.0, t), s)


def test_add_scaled_cancellation():
    s = add_scaled(ket(w0=1), 1.0, ket(w1=1))
    assert add_scaled(s, -1.0, s).is_zero()


def test_inner_orthogonality_and_norm():
    assert inner(ket(w0=1), ket(w1=1)) == 0
    assert abs(inner(ket(w0=2), ket(w0=2)) - 1.0) < 1e-12
    s = add_scaled(ket(w0=1), 1j, ket(w1=1))
    assert abs(fock.norm2(s) - 2.0) < 1e-12


def test_project_count_simple():
    s = ket(w0=1)
    comp, p = fock.project_count(s, {0}, 1)
    assert fock.allclose(comp, s) and abs(p - 1.0) < 1e-12


def test_project_count_empty_wire_set():
    s = add_scaled(ket(w0=1), 0.5, ket(w1=2))
    comp, p = fock.project_count(s, set(), 0)
    assert fock.allclose(comp, s)
    assert abs(p - fock.norm2(s)) < 1e-12


def test_project_count_tap_step():
    # (a†²_0 - a†²_1)/2 with exactly one photon on the tap wire 1 keeps
    # nothing; moving one photon 0->1 first models the tap-off and keeps
    # the cross term only.
    bunch = add_scaled(fock.scale(ket(w0=2), 0.5 * math.sqrt(2)), -0.5 * math.sqrt(2), ket(w1=2))
    # split each two-photon bunch across (0,1)/(2,3) as (x+y)^2/2
    split = fock.substitute(bunch, {0: ((0, R2), (1, R2)), 1: ((2, R2), (3, R2))})
    comp, p = fock.project_count(split, {1, 3}, 1)
    # only the cross terms (one kept photon, one tapped) survive
    assert abs(amplitude(comp, {0: 1, 1: 1}) - 0.5) < 1e-12
    assert abs(amplitude(comp, {2: 1, 3: 1}) + 0.5) < 1e-12
    assert abs(p - 0.5) < 1e-12


def test_relabel_identity_and_roundtrip():
    # a permutation element is a unit-coefficient substitution
    s = add_scaled(ket(w0=1, w1=2), 0.3j, ket(w2=1))
    assert fock.allclose(sim.apply_element(s, Swap(())), s)
    swap = Swap(((0, 2), (2, 0)))
    back = sim.apply_element(sim.apply_element(s, swap), swap)
    assert fock.allclose(back, s)


def test_substitute_preserves_norm_and_photons():
    s = add_scaled(ket(w0=2, w1=1), 0.5, ket(w1=3))
    u = {0: ((0, R2), (1, R2)), 1: ((0, R2), (1, -R2))}
    out = fock.substitute(s, u)
    assert abs(fock.norm2(out) - fock.norm2(s)) < 1e-9
    assert total_photons(out) == total_photons(s)


def test_substitute_onto_a_wire_the_rest_occupies():
    # a†_0 -> a†_2 on |1_0 1_2>: a†_2 a†_2 |vac> = sqrt(2) |2_2>
    out = fock.substitute(ket(w0=1, w2=1), {0: ((2, 1.0),)})
    assert fock.allclose(out, fock.scale(ket(w2=2), math.sqrt(2)))
    assert fock.allclose(naive_substitute(ket(w0=1, w2=1), {0: ((2, 1.0),)}), out)


wires = st.integers(min_value=0, max_value=3)
amps = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def small_states(draw):
    n_terms = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n_terms):
        occ = {}
        for w in draw(st.lists(wires, max_size=3)):
            occ[w] = occ.get(w, 0) + 1
        amp = draw(amps)
        key = tuple(sorted(occ.items()))
        terms[key] = terms.get(key, 0) + amp
    return FockState(terms)


@given(small_states(), wires)
@settings(max_examples=60, deadline=None)
def test_canonical_commutator(s, w):
    lhs = down(up(s, w), w)
    rhs = up(down(s, w), w)
    assert fock.allclose(add_scaled(lhs, -1.0, rhs), s)


@given(small_states(), wires)
@settings(max_examples=60, deadline=None)
def test_ladder_number_identity(s, w):
    # <s|a a†|s> = <s|(n+1)|s>
    created = up(s, w)
    lhs = inner(created, created)
    rhs = sum(abs(amp) ** 2 * (dict(occ).get(w, 0) + 1) for occ, amp in s.terms())
    assert abs(lhs - rhs) < 1e-9


coeffs = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def sparse_states(draw):
    """Up to 4 terms on wires 0..4, at most 3 photons per wire."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        counts = draw(st.dictionaries(st.integers(0, 4), st.integers(1, 3), max_size=5))
        terms[tuple(sorted(counts.items()))] = draw(coeffs)
    return FockState(terms)


@st.composite
def substitution_rules(draw):
    """Rules on 1..3 of the wires 0..4.  Either a unitary from the keys onto
    as many distinct image wires, or arbitrary non-unitary images with
    repeated wires; in both, images may fall outside the keys on wires the
    rest of a term already occupies."""
    keys = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    k = len(keys)
    if draw(st.booleans()):
        images = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k, unique=True))
        m = np.array(draw(st.lists(coeffs, min_size=k * k, max_size=k * k))).reshape(k, k)
        u, _ = np.linalg.qr(m + 2 * np.eye(k))
        return {w: tuple((images[j], complex(u[j, i])) for j in range(k))
                for i, w in enumerate(keys)}
    image = st.tuples(st.integers(0, 5), coeffs)
    return {w: tuple(draw(st.lists(image, min_size=1, max_size=3))) for w in keys}


@given(sparse_states(), substitution_rules())
@settings(max_examples=300, deadline=None)
def test_substitute_matches_naive_reference(s, rules):
    expect = naive_substitute(s, rules)
    # amplitudes reach sqrt(n!) times a product of coefficients, so the
    # absolute tolerance follows the largest one
    scale = max([1.0] + [abs(a) for _, a in expect.terms()])
    assert fock.allclose(fock.substitute(s, rules), expect, atol=fock.ATOL * scale)


@st.composite
def ladder_legs(draw):
    """1-5 legs on the wires 0..5, repeats allowed; coefficients are
    ordinary, exactly zero or below DROP_TOL."""
    coeff = st.one_of(coeffs, st.just(0j), st.complex_numbers(max_magnitude=1e-13))
    return draw(st.lists(st.tuples(st.integers(0, 5), coeff), min_size=1, max_size=5))


@given(sparse_states(), ladder_legs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_ladder_matches_per_leg_reference(s, legs, create_):
    expect = apply_operator(s, legs, create if create_ else annihilate)
    scale = max([1.0] + [abs(a) for _, a in expect.terms()])
    assert fock.allclose(fock.ladder(s, legs, create=create_), expect, atol=1e-12 * scale)


@given(small_states())
@settings(max_examples=40, deadline=None)
def test_projection_partition_reconstructs(s):
    # summing the components over all total counts on a wire group
    # reconstructs the state and its squared norm
    group = {0, 1}
    total = FockState()
    mass = 0.0
    for n in range(0, 8):
        comp, p = fock.project_count(s, group, n)
        total = add_scaled(total, 1.0, comp)
        mass += p
    assert fock.allclose(total, s)
    assert abs(mass - fock.norm2(s)) < 1e-9


def test_rationalize():
    assert fock.rationalize(0.03125) == "1/32"
    assert fock.rationalize(5.0 / 1152.0) == "5/1152"
    assert fock.rationalize(1.0) == "1"
    assert fock.rationalize(1 / 768) == "1/768"
    assert fock.rationalize(0.1234567) is None
    # the denominator bound follows p, so large schemes render exactly too
    assert fock.rationalize(1 / 131072) == "1/131072"    # GHZ 9 P_ff
    assert fock.rationalize(1 / 393216) == "1/393216"    # W 6 P_no_ff
    assert fock.rationalize(2.0 ** -20) == "1/1048576"
    # the tolerance is relative to p: a tiny p is not rounded to zero
    assert fock.rationalize(1e-12) is None
    assert fock.rationalize(0.0) == "0"
    # odd factors other than powers of three: the n of the W closed forms
    assert fock.rationalize(1 / (5 * 2 ** 14)) == "1/81920"    # W 5 P_no_ff
    assert fock.rationalize(1 / (7 * 2 ** 20)) == "1/7340032"  # W 7 P_no_ff


def test_rationalize_repeats_its_answers():
    for p in (0.03125, 5.0 / 1152.0, 0.1234567, 1e-12, 0.0):
        first = fock.rationalize(p)
        hits = fock.rationalize.cache_info().hits
        assert [fock.rationalize(p) for _ in range(3)] == [first] * 3
        assert fock.rationalize.cache_info().hits == hits + 3
    assert fock.rationalize(0.1234567) is None


@st.composite
def wire_permutations(draw):
    """A permutation of 1-4 distinct wires among 0..5 (the states above
    use 0..4), as a mapping."""
    keys = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
    return dict(zip(keys, draw(st.permutations(keys))))


@given(sparse_states(), wire_permutations())
@settings(max_examples=200, deadline=None)
def test_relabel_matches_naive_reference(s, mapping):
    # a swap element, applied as a substitution, re-keys every term
    out = sim.apply_element(s, Swap(tuple(mapping.items())))
    assert fock.allclose(out, naive_relabel(s, mapping), atol=1e-12)
