"""tools/output_digest.py: the digests cover the pipeline's outputs and repeat."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def _load():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_cover_the_backward_pass_and_repeat():
    tool = _load()
    first = tool.run_workload("rbsde-5d", seed=0, shrink=8)
    for key in ("simulate_uncontrolled[0].states", "solve_rbsde[0].y_nodes", "solve_rbsde[0].diagnostics.mean_abs_z", "run.values.y0"):
        assert len(first[key]) == 64
    assert tool.run_workload("rbsde-5d", seed=0, shrink=8) == first
    assert tool.run_workload("rbsde-5d", seed=1, shrink=8)["solve_rbsde[0].y_nodes"] != first["solve_rbsde[0].y_nodes"]


def test_pde_variants_digest_each_solve_and_repeat(capsys):
    import json

    tool = _load()
    first = tool.run_pde_variants()
    solves = (
        "decaying_obstacle-beta2-nx81-dominating",
        "controlled_drift_abs-nx81-trunc22",
        "controlled_drift_abs-d2-nx41-dominating",
        "correlated-d2-nx41",
        "state-sigma-d1-nx81",
    )
    for name in solves:
        for part in ("nt", "scheme_meta.cfl_ratio", "values", "control", "stop_mask"):
            assert len(first[f"{name}.{part}"]) == 64
    assert "controlled_drift_abs-nx81-trunc22.scheme_meta.trunc[0]" in first
    assert len({first[f"{name}.values"] for name in solves}) == len(solves)
    assert tool.run_pde_variants() == first
    assert tool.main(["--workload", "pde-variants"]) == 0
    assert json.loads(capsys.readouterr().out)["workloads"] == {"pde-variants": first}


def test_mc_variants_digest_each_solve_and_repeat(capsys):
    import json

    tool = _load()
    first = tool.run_mc_variants()
    solves = (
        "controlled_drift_abs-h0.8-x1.5-local25-trunc22",
        "controlled_drift_abs-h1.2-x0-poly3-dominating",
        "bachelier_put-x1-poly3",
        "constant-correlated-d2-poly3",
    )
    assert len(first) == 4 * len(solves)
    for name in solves:
        for part in ("y_nodes", "k_increments", "y0", "y0_samples"):
            assert len(first[f"{name}.{part}"]) == 64
    for part in ("y_nodes", "k_increments"):
        assert len({first[f"{name}.{part}"] for name in solves}) == len(solves)
    assert tool.run_mc_variants() == first
    assert tool.main(["--workload", "mc-variants"]) == 0
    assert json.loads(capsys.readouterr().out)["workloads"] == {"mc-variants": first}


def test_expr_variants_digest_each_expression_and_repeat(capsys):
    import json

    tool = _load()
    first = tool.run_expr_variants()
    assert len(first) == 2 * len(tool.EXPRESSIONS)
    for text in tool.EXPRESSIONS:
        assert len(first[f"{text}.value"]) == 64
    assert len({first[f"{text}.value"] for text in tool.EXPRESSIONS}) == len(tool.EXPRESSIONS)
    assert tool.run_expr_variants() == first
    assert tool.main(["--workload", "expr-variants"]) == 0
    assert json.loads(capsys.readouterr().out)["workloads"] == {"expr-variants": first}


def test_digest_tree_separates_dtype_shape_and_sign_of_zero():
    import numpy as np

    tool = _load()
    out = {}
    tool.digest_tree("a", {"x": np.zeros(2), "y": np.zeros((2, 1)), "z": np.zeros(2, dtype=np.float32)}, out)
    tool.digest_tree("b", [0.0, -0.0], out)
    assert len({out["a.x"], out["a.y"], out["a.z"]}) == 3
    assert out["b[0]"] != out["b[1]"]


def test_diff_digests_names_moved_and_one_sided_keys():
    tool = _load()
    a = {"w1": {"x": "1", "y": "2", "z": "3"}, "w2": {"x": "1"}}
    b = {"w1": {"x": "1", "y": "9", "v": "4"}, "w3": {"x": "1"}}
    assert tool.diff_digests(a, a) == []
    assert tool.diff_digests(a, b) == [
        "only-b w1 v",
        "moved w1 y",
        "only-a w1 z",
        "only-a w2 x",
        "only-b w3 x",
    ]
    assert tool.diff_digests({}, {}) == []


def test_forward_variants_digest_each_loop_and_repeat(capsys):
    import json

    tool = _load()
    first = tool.run_forward_variants()
    name = "state-drift-d1-nx81"
    for part in ("values", "control", "stop_mask", "evaluate.mean", "evaluate.stderr", "martingale_check.mean"):
        assert len(first[f"{name}.{part}"]) == 64
    # the drift reads the state, so the forward loops gather from a [k, n, d] table
    spec = tool._state_drift_spec()
    assert spec.control_table(0.0, [[0.1], [0.2]])[0].shape == (3, 2, 1)
    assert tool.run_forward_variants() == first
    assert tool.main(["--workload", "forward-variants"]) == 0
    assert json.loads(capsys.readouterr().out)["workloads"] == {"forward-variants": first}
