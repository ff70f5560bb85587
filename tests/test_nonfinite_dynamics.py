"""Non-finite times and propagators are validation errors, not crashes.

``json.loads`` accepts ``Infinity`` and ``NaN``, and a Hamiltonian with
entries near the float range overflows in its Hermitian part; either must
exit 2 with a located error, no traceback and no numpy warning (tier-1
turns warnings into errors).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from decohist import TimeGrid
from decohist.cli import main
from decohist.dynamics import propagator

MINIMAL = Path(__file__).resolve().parent.parent / "scenarios" / "minimal.json"


def two_slot_scenario(tmp_path, times, hamiltonian) -> str:
    doc = json.loads(MINIMAL.read_text(encoding="utf-8"))
    doc.update(times=times, slots=["z", "z"], histories={}, queries={})
    doc["dynamics"] = {"hamiltonian": hamiltonian}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


ZERO_H = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
HUGE_H = [[[1e308, 0], [1e308, 0]], [[1e308, 0], [-1e308, 0]]]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_time_grid_rejects_non_finite_times(bad):
    with pytest.raises(ValueError, match="times must be finite"):
        TimeGrid((0.0, bad), 0)


def test_propagator_rejects_an_overflowing_hamiltonian():
    h = np.array([[1e308, 1e308], [1e308, -1e308]])
    with pytest.raises(ValueError, match="propagator entries are not finite"):
        propagator(h, 1.0)


@pytest.mark.parametrize(
    "times, hamiltonian, stderr",
    [
        ([0.0, float("inf")], ZERO_H, "error: times: times must be finite, got [0.0, inf]\n"),
        (
            [0.0, 1.0],
            HUGE_H,
            "error: dynamics: propagator entries are not finite: "
            "H or a time step is too large\n",
        ),
    ],
    ids=["infinite-time", "overflowing-hamiltonian"],
)
def test_cli_exits_two_with_a_located_error(tmp_path, capsys, times, hamiltonian, stderr):
    path = two_slot_scenario(tmp_path, times, hamiltonian)
    assert main(["validate", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)
