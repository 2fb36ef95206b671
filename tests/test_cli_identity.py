"""``tools/cli_identity.py``'s account of the values that moved."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_identity.py"
_SPEC = importlib.util.spec_from_file_location("cli_identity", _PATH)
cli_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_identity)


def _output(**values):
    return {"exit": 0, "stdout": json.dumps(values), "csv": None, "errors": ""}


class TestChanges:
    @pytest.mark.parametrize(
        "se, measure",
        [(0.01, ("se", 0.5)), (0.0, ("relative", 0.0025)), (5e-19, ("relative", 0.0025)),
         (None, None)],
        ids=["noise", "exact", "rounding", "no_partner"],
    )
    def test_a_move_is_measured_against_the_standard_error_or_the_value(self, se, measure):
        # an se of 0 or of rounding noise (below 1e-12 of the value) would
        # read inf se: the move is given relative to the value instead
        old = _output(cva=2.0, **({} if se is None else {"se_cva": se}))
        new = _output(cva=2.005, **({} if se is None else {"se_cva": se}))
        (label, change, got), = cli_identity._changes(old, new)
        assert label == "stdout cva" and change == pytest.approx(0.005)
        if measure is None:
            assert got is None
        else:
            assert got[0] == measure[0] and got[1] == pytest.approx(measure[1])

    def test_a_value_of_zero_with_no_noise_moves_by_inf(self):
        (_, _, got), = cli_identity._changes(_output(dva=0.0, se_dva=0.0),
                                             _output(dva=1e-9, se_dva=0.0))
        assert got == ("relative", math.inf)
