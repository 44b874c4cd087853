"""Exact small solutions of ternary quadratic congruences, with the
character-sum toolkit used to certify the norm bound behind them.

Everything is integer arithmetic end to end: solver output carries a
replayable trace whose invariants (divisibility, orthogonality, the norm
chain) are rechecked on construction, and the complete-sum machinery
always keeps an independent brute-force route next to each structured
evaluation.

Public names are listed once, in _EXPORTS, and each is imported from its
module on first use (PEP 562).  So ``import quadcong`` and the solve path
(solver, trace, verify, the ``solve`` command) load no numpy; numpy loads
with the first character-sum or oracle name.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "charsum": (
        "Box", "Character", "Disc", "divisor_char_sum", "divisor_sum_positive",
        "exp_char_sum", "form_shift_sum", "form_shift_sum_q", "full_grid_sum",
        "incomplete_sum", "make_character", "max_window_power_sum", "minimal_lift",
        "second_moment", "shift_pair_counts", "shift_params", "shifted_sum_bound",
        "window_power_sum",
    ),
    "cli": ("ExperimentConfig", "fit_exponent", "main"),
    "errors": ("QuadCongError",),
    "lattice": ("shortest_vector3",),
    "modmath": ("Modulus", "is_prime", "jacobi", "make_modulus", "sqrt_mod_squarefree"),
    "oracle": ("brute_min_square", "brute_min_zero", "oracle_scan"),
    "qforms": ("BinaryForm", "TernaryForm", "monic_companion", "parse_binary", "parse_ternary", "sample_forms"),
    "solver": ("SolveTrace", "parse_trace", "solve_from_witness", "solve_ternary", "trace_lines", "verify_trace"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
