"""Both relaxation schemes converge at second order: each halving of the
mesh divides the error in beta against the collocation oracle by four.
The pins check bits and the acceptance tests the published values; a
scheme defect that keeps beta close at J = 200 but lowers the order (a
wrong weight on one interval, say) shows up here."""

import math

import pytest

from oceanbvp import FbfProblem, cli, solve_fbf
from oceanbvp.model import BcKind, ModelParams
from oracles import collocation_beta

QUG_J = (100, 200, 400)
QUG_B = (2.0, 4.0, 8.0, 16.0)   # warm-started along b, as the sweep does
QUG_CHECKED_B = (2.0, 16.0)
FBF_J = (250, 500, 1000)
ORDER = (1.95, 2.05)


def _orders(betas, exact):
    """log2 of each ratio of successive errors; a sign change gives -inf,
    which no order bound admits."""
    errors = [beta - exact for beta in betas]
    return [math.log2(e1 / e2) if e1 / e2 > 0 else -math.inf
            for e1, e2 in zip(errors, errors[1:])]


@pytest.mark.parametrize("kind", list(BcKind))
def test_qug_is_second_order(kind):
    betas = {b: [] for b in QUG_B}
    for J in QUG_J:
        for row in cli.sweep_b(QUG_B, "qug", kind, J=J, c=5.0):
            assert row["status"] == "ok", row
            betas[row["b"]].append(row["beta_numeric"])
    for b in QUG_CHECKED_B:
        orders = _orders(betas[b], collocation_beta(b, kind, 8, 100))
        assert all(ORDER[0] <= r <= ORDER[1] for r in orders), (b, orders)


@pytest.mark.parametrize("kind", list(BcKind))
def test_fbf_is_second_order(kind):
    p = ModelParams(2.0)
    betas = [solve_fbf(FbfProblem(params=p, kind=kind, eps=1e-5, J=J))[0].beta
             for J in FBF_J]
    orders = _orders(betas, collocation_beta(2.0, kind, 8, 100))
    assert all(ORDER[0] <= r <= ORDER[1] for r in orders), orders
