"""Pinned command-line output, byte for byte.

The SHA-256 digests below are of the output as first recorded: the
`solve --format json` report of each of the five methods, the relaxation
rows of `tables`, one `profile` CSV and the `cli.sweep_b` rows of four
methods over b = 0, 0.5, 1 for both boundary conditions.  A change to how
the command line dispatches to the solvers must reproduce every one of
them.  The grids are small, so the whole module runs in a few seconds.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from oceanbvp import cli
from oceanbvp.model import BcKind

SOLVE_ARGS = {
    "solve-qug": ["--method", "qug", "--J", "50"],
    "solve-fbf": ["--method", "fbf", "--bc", "slip", "--J", "100",
                  "--eps", "1e-2"],
    "solve-fbf-continuation": ["--method", "fbf-continuation", "--J", "100",
                               "--eps", "1e-2", "--eps", "1e-3"],
    "solve-shoot-newton": ["--method", "shoot-newton", "--bc", "slip",
                           "--beta0", "0.8"],
    "solve-shoot-secant": ["--method", "shoot-secant", "--bc", "slip",
                           "--beta0", "0.8", "--beta1", "1.0", "--xi-inf", "8"],
}
SWEEP_METHODS = ("qug", "fbf", "shoot-newton", "shoot-secant")

PINS = {
    "solve-qug":
        "1ccf9a8de2e9abefbb5a44bc77b704cc4ab7dc789fb1f81f3f46463db5023b20",
    "solve-fbf":
        "b08e728e6c4256e33ab67c2d7e4e4fe56e7c16f2ee23ede5d2b3377cf8db71e5",
    "solve-fbf-continuation":
        "c2320e7ca00ba60edc56eda6c4521cbf808f774c2a8602f222591396cd8063d8",
    "solve-shoot-newton":
        "efac2e6b7f5619f570827fe7924c36f90ccba5398f9e28b385ff1b5c1100509b",
    "solve-shoot-secant":
        "4d46db0a414914e103339971c04492c497f9191c21537c7724622bce2d177a19",
    "tables":
        "ab3b14c9e6029836adb649dc9ae55c9ab2a6777aaa88c81c86ef87e9318e79ea",
    "profile":
        "1627d46e809412b71c6e7d2a833b48dcc7a96e679a3098cf03f40b9c0a1880a9",
    "sweep:qug:no-slip":
        "63e84b060e4a1db740fe3b939780b661f3d1452cd5c5d2f9c38c0b8235e2e572",
    "sweep:qug:slip":
        "f3069d95decab6321ff0e865739016a0f80681a5ede9fc4281579ef7afe858f6",
    "sweep:fbf:no-slip":
        "6e6ae77ee84873f80ce744a71e0a8c31490252b6ff9df16a124140c87d071064",
    "sweep:fbf:slip":
        "e2fe2b4a82bd6922131fe21d820e549fc75bf630b744d5fb791453d628ceefce",
    "sweep:shoot-newton:no-slip":
        "bf2bacc1174a716c9a4d79d8805709e237d8392279447ae70bf45b4bc4737fbb",
    "sweep:shoot-newton:slip":
        "213d08d6ee8aca0d42c58b2fbfb6cef09713bb5e7277ce3fba7aa2504448d255",
    "sweep:shoot-secant:no-slip":
        "26b8b8bfaca11437dda155fe17bf7ed4d57c5932632a6f1f0c89dca3c163dd9b",
    "sweep:shoot-secant:slip":
        "497390439a5468098031cad156c3d7d06a5f389cfabea9e36716184c7dc7cb86",
}


def _main_output(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _output(name):
    if name in SOLVE_ARGS:
        return _main_output(["solve", *SOLVE_ARGS[name], "--format", "json"])
    if name == "tables":
        return _main_output(["tables", "--skip", "shoot", "--format", "json"])
    if name == "profile":
        return _main_output(["profile", "--method", "fbf", "--bc", "slip",
                             "--J", "100", "--eps", "1e-2"])
    _, method, bc = name.split(":")
    return json.dumps(cli.sweep_b([0.0, 0.5, 1.0], method, BcKind(bc)))


NAMES = [*SOLVE_ARGS, "tables", "profile",
         *(f"sweep:{m}:{kind.value}" for m in SWEEP_METHODS for kind in BcKind)]


@pytest.mark.parametrize("name", NAMES)
def test_output_is_pinned(name):
    digest = hashlib.sha256(_output(name).encode()).hexdigest()
    assert digest == PINS[name]
