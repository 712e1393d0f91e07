"""Public names: every exported name resolves, and the removed scalar entry points stay gone."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import ctrlstop

MODULES = ("ctrlstop", *(f"ctrlstop.{m.name}" for m in pkgutil.iter_modules(ctrlstop.__path__)))

# single-point entry points whose batch kernels are the only evaluation path
_TWINS = ("HamiltonianValue", "hamiltonian", "sup_hamiltonian", "truncated_sup_hamiltonian", "cutoff", "unit_direction")
REMOVED = {
    # girsanov_log_batch looks the controls up as it steps; nothing labels a stored batch
    # every coefficient is compiled from its expression; an ordering is two expression-backed solves
    # the direction ell(z) with ell(z) . z = |z|: neither solver needs it, as H* is a max over the controls
    "ctrlstop": (*_TWINS, "dominating_generator", "attach_controls", "comparison_check", "PolicyField", "unit_direction_batch"),
    "ctrlstop.hamilton": (*_TWINS, "_one_row", "unit_direction_batch", "tail_norms"),
    # each parse returns one closure; variables are gathered while parsing
    "ctrlstop.expr": ("_Num", "_Var", "_Neg", "_Bin", "_Call"),
    # a constant g or h is broadcast by ProblemSpec as a read-only view
    "ctrlstop.model": ("dominating_generator", "_broadcast_scalar"),
    # a constant sigma is a broadcast view already, so nothing is hoisted out of the step loops
    # the tests build the per-step terms from _log_density_step; the package needs only their sum
    "ctrlstop.paths": ("attach_controls", "_neumaier_sum", "_constant_sigma", "girsanov_log_terms"),
    # the sweep records the control; extract_policy has no kernel pass to block
    # the solved ValueField answers control_indices and stop_at itself
    "ctrlstop.pde": ("POLICY_BLOCK_ROWS", "comparison_check", "PolicyField"),
}
# keyword options no caller set; the grid box is spec.domain and the others are module constants
REMOVED_OPTIONS = {
    ("ctrlstop.pde", "make_grid"): ("box", "cfl"),
    ("ctrlstop.pde", "ladder"): ("core_fraction",),
    ("ctrlstop.pde", "SpaceTimeGrid.core_mask"): ("fraction",),
    # a copy of spec.controls.points that nothing read; the stop mask, final slice included, replaces binding
    ("ctrlstop.pde", "ValueField"): ("control_points", "binding"),
    # fields nothing read: the start point is states[:, 0] and the seed stays with the caller
    ("ctrlstop.paths", "PathBatch"): ("seed", "x0"),
    # the partition spans spec.domain; Z lives one slice at a time, and the arguments stay with the caller
    ("ctrlstop.mc", "RegressionBasis"): ("cond_threshold", "box"),
    ("ctrlstop.mc", "BackwardSolveResult"): ("z_nodes", "basis", "trunc", "generator"),
    ("ctrlstop.strategy", "martingale_check"): ("q",),
    # the field passed in is the strategy evaluated or written
    ("ctrlstop.strategy", "optimality_gap"): ("challengers", "scheme_budget_rel", "policy"),
    ("ctrlstop.cli", "write_value_policy_csv"): ("policy",),
    # a problem file is always validated as it is read
    ("ctrlstop.cli", "parse_problem_file"): ("validate_spec",),
    ("ctrlstop.cli", "load_problem"): ("validate_spec",),
    # derived from the expressions on construction: CoefficientField.reads and sigma_diagonal
    ("ctrlstop.model", "CoefficientField"): (
        "sigma_constant", "sigma_diagonal", "f_t_free", "gamma_t_free", "h_t_free", "h_x_free",
    ),
    # drift and reward are gathered from one control_table call, so both always come back
    ("ctrlstop.model", "ProblemSpec.control_rows"): ("drift", "reward"),
}
# f and gamma are evaluated only as a control table; the lookups were called by tests alone
REMOVED_ATTRIBUTES = {
    ("ctrlstop.model", "ProblemSpec"): ("f", "gamma"),
    ("ctrlstop.model", "ControlSet"): ("index_of",),
    ("ctrlstop.expr", "ExpressionTree"): ("is_constant",),
    # each ladder solves at the covering pair of its own reach; nothing else asks what a pair covers
    ("ctrlstop.hamilton", "TruncationIndex"): ("covers",),
}


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_scalar_entry_points_are_not_importable(module):
    mod = importlib.import_module(module)
    for name in REMOVED[module]:
        assert name not in getattr(mod, "__all__", ())
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})


@pytest.mark.parametrize("module, name", sorted(REMOVED_OPTIONS))
def test_removed_options_are_not_accepted(module, name):
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part)
    params = inspect.signature(obj).parameters
    assert [option for option in REMOVED_OPTIONS[(module, name)] if option in params] == []


@pytest.mark.parametrize("module, name", sorted(REMOVED_ATTRIBUTES))
def test_removed_attributes_are_gone(module, name):
    cls = getattr(importlib.import_module(module), name)
    assert [attr for attr in REMOVED_ATTRIBUTES[(module, name)] if hasattr(cls, attr)] == []


def test_compiled_drift_and_reward_take_only_a_control_table():
    coeffs = ctrlstop.build_builtin("controlled_drift_abs").coefficients
    for fn in (coeffs.f, coeffs.gamma):
        assert list(inspect.signature(fn).parameters) == ["t", "X", "A"]


def test_sup_hamiltonian_batch_returns_one_value_array():
    # the maximiser is the finite-difference step's record (first_maximiser), not H*'s
    spec = ctrlstop.build_builtin("controlled_drift_abs", {"d": 2})
    vals = ctrlstop.sup_hamiltonian_batch(spec, 0.0, np.zeros((3, 2)), np.ones((3, 2)))
    assert type(vals) is np.ndarray
    assert vals.shape == (3,)
