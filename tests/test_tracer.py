"""perfbench's tracer patches fixed module attributes of the package; a
refactor that drops or bypasses one of them shows up here rather than
only in a traced benchmark run."""

import importlib.util
import pathlib

from oceanbvp import cli, free_boundary, quasi_uniform
from oceanbvp.model import BcKind, ModelParams

TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_records_calls():
    tracer = _load_tracer().Tracer()
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
