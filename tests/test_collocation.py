"""The mapped Chebyshev collocation oracle, which shares no code with the
solvers but ``model.forcing``, against the values known independently:
the Munk beta 1 at b = 0 and the Richardson-extrapolated QUG betas at
b = 2 (J = 400, 800, 1600 at c = 5).  Where no reference exists it is
checked against itself at a second map length and resolution."""

import pytest

from oceanbvp.model import BcKind
from oracles import collocation_beta

RICHARDSON_B2 = {BcKind.NO_SLIP: 0.8261392958, BcKind.SLIP: 0.5289209755}


@pytest.mark.parametrize("kind", list(BcKind))
def test_reproduces_munk_and_b2_references(kind):
    assert collocation_beta(0.0, kind, 12, 200) == pytest.approx(1.0,
                                                                 abs=1e-8)
    assert collocation_beta(2.0, kind, 4, 80) == pytest.approx(
        RICHARDSON_B2[kind], abs=1e-8)


@pytest.mark.parametrize("kind", list(BcKind))
@pytest.mark.parametrize("b", [0.5, 8.0, 50.0])
def test_two_settings_agree(b, kind):
    # small b needs a longer map and more points: the far tail oscillates
    # and decays slowly
    coarse, fine = ((12, 200), (16, 240)) if b < 1 else ((8, 100), (10, 140))
    assert abs(collocation_beta(b, kind, *coarse)
               - collocation_beta(b, kind, *fine)) < 1e-8
