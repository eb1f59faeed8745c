"""Heralded photonic entanglement: sculpting bigraphs compiled to linear
optics and verified by exact Fock-space simulation."""

from .bigraph import (Edge, EpmPattern, InternalState, SculptingBigraph,
                      classify_circle, ghz, is_epm, parse_graph,
                      perfect_matchings, preset, serialize_graph, type5, w)
from .circuit import Circuit, parse_circuit, serialize_circuit, validate
from .compiler import CompileError, compile_graph, to_dual_rail
from .analysis import (fidelity, genuine_entanglement, target_state,
                       verify_scheme)
from .sculpting import (QubitState, apply_sculpting, initial_state,
                        no_bunching_check, pm_predict, to_qubit_state)
from .sim import (HeraldOutcome, classify_feedforward, run_heralded,
                  success_probability)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
