"""Pinned results of the sixteen relaxation configurations at b = 2.

The values are those of the box-scheme and quasi-uniform solvers as first
recorded; a refactor of either scheme must reproduce them: beta and the
free boundary to 1e-12 and the Newton iteration count exactly.  The
solves come from the session fixtures, so this test adds none.
"""

import pytest

from oceanbvp.model import BcKind

NO, SL = BcKind.NO_SLIP, BcKind.SLIP

# (kind, J, eps) -> (beta, free boundary, Newton iterations)
FBF_PINS = {
    (NO, 2000, 1e-2): (0.8261841493986783, 6.4857616890864085, 7),
    (NO, 2000, 1e-3): (0.8261415892783613, 8.79299126251096, 8),
    (NO, 2000, 1e-4): (0.8261413166252864, 11.098635768299772, 10),
    (NO, 2000, 1e-5): (0.8261422067597669, 13.40221938024667, 11),
    (NO, 4000, 1e-5): (0.82614002397625, 13.402251721575876, 11),
    (SL, 2000, 1e-2): (0.5289699996948669, 5.828307477837222, 7),
    (SL, 2000, 1e-3): (0.5289222942172401, 8.13281309745089, 8),
    (SL, 2000, 1e-4): (0.5289212715942303, 10.437875643669388, 9),
    (SL, 2000, 1e-5): (0.5289213760655187, 12.741323826476545, 11),
    (SL, 4000, 1e-5): (0.5289210761058737, 12.741354333954982, 11),
}

# (kind, J) -> (beta, Newton iterations), c = 5
QUG_PINS = {
    (NO, 200): (0.8261795569540357, 4),
    (NO, 400): (0.8261493615379311, 4),
    (NO, 800): (0.8261418122435548, 4),
    (SL, 200): (0.528927023202524, 4),
    (SL, 400): (0.5289224874048484, 4),
    (SL, 800): (0.5289213534409856, 4),
}


def test_free_boundary_pins(fbf_b2, fbf_b2_j4000):
    for (kind, J, eps), (beta, xi_eps, iters) in FBF_PINS.items():
        sol, rep = fbf_b2[(kind, eps)] if J == 2000 else fbf_b2_j4000[kind]
        assert sol.beta == pytest.approx(beta, abs=1e-12), (kind, J, eps)
        assert sol.free_boundary == pytest.approx(xi_eps, abs=1e-12), \
            (kind, J, eps)
        assert rep.iterations == iters, (kind, J, eps)


def test_quasi_uniform_pins(qug_b2):
    for (kind, J), (beta, iters) in QUG_PINS.items():
        sol, rep = qug_b2[(kind, J)]
        assert sol.beta == pytest.approx(beta, abs=1e-12), (kind, J)
        assert rep.iterations == iters, (kind, J)
