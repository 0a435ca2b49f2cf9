"""perfbench's tracer patches fixed module attributes of the package, a
traced run gates on perfbench's block-solver check, and every workload
checks its results against the published and closed-form references; a
refactor that drops or bypasses one of the patched names, renames a name
a workload calls, or breaks one of those checks, shows up here rather
than only in a benchmark run."""

import importlib.util
import pathlib

import numpy as np
import pytest

from oceanbvp import cli, free_boundary, quasi_uniform
from oceanbvp.model import BcKind, ModelParams

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_records_calls():
    tracer = _load("tracer").Tracer()
    p = ModelParams(2.0)
    with tracer:
        quasi_uniform.solve_qug(5.0, 20, p, BcKind.NO_SLIP)
        free_boundary.solve_fbf(free_boundary.FbfProblem(params=p, eps=1e-2,
                                                         J=40))
        rows = cli.sweep_b([0.0, 2.0], "qug", BcKind.SLIP, J=20)
    assert [row["status"] for row in rows] == ["ok", "ok"]
    calls = {name: entry["calls"]
             for name, entry in tracer.summary().items()}
    for name in ("free_boundary.build_system", "free_boundary.solve_fbf",
                 "quasi_uniform.build_system", "quasi_uniform.solve_qug",
                 "blocksolve.newton_solve", "blocksolve.solve_bordered_block",
                 "cli.sweep_b"):
        assert calls.get(name, 0) >= 1, name


def test_block_solver_check_passes():
    check = _load("kernels").check_block_solver
    for seed in (1, 2, 3):
        assert check(np.random.default_rng(seed)) < 1e-10, seed


WORKLOADS = _load("workloads")
# Solves checked in one pass at seed 0: the eight relaxation rows, the
# four shooting rows, and the b values of the four sweeps.
ATTEMPTED = {"relax-tables": 8, "shoot-tables": 4, "sweep": 34}


@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_workload_pass_is_correct(name):
    result = WORKLOADS.run_pass(WORKLOADS.build(name, 0))
    assert (result.failed, result.errors, result.failures) == (0, [], [])
    assert result.attempted == ATTEMPTED[name]
