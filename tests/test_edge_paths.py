"""Input-validation lines that no other test reaches."""

import json
from pathlib import Path

import numpy as np
import pytest

from decohist import SpectralLabel, basis_projector
from decohist.cli import main
from decohist.errors import DimensionMismatchError
from decohist.linalg import as_operator

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_as_operator_refuses_a_vector():
    with pytest.raises(DimensionMismatchError, match="expected a 2-D matrix, got ndim=1"):
        as_operator(np.ones(3))


def test_as_operator_refuses_an_empty_matrix():
    with pytest.raises(DimensionMismatchError, match="matrix has no entries"):
        as_operator(np.zeros((0, 0)))


def test_basis_projector_index_out_of_range():
    with pytest.raises(DimensionMismatchError, match="basis index 2 out of range for dim 2"):
        basis_projector(2, [2])


def test_spectral_label_index_is_nonnegative():
    with pytest.raises(ValueError, match="label index must be >= 0, got -1"):
        SpectralLabel(-1)


def test_validate_json_renders_empty_containers(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "minimal.json").read_text())
    doc["histories"], doc["queries"] = {}, {}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(path), "--output", "json"]) == 0
    out = capsys.readouterr().out
    assert '  "histories": [],\n  "queries": []\n}\n' in out
    assert json.loads(out)["histories"] == []
