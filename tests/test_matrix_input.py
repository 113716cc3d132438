"""Every entry point reads raw matrices through the same parser."""

import json

import pytest
from click.testing import CliRunner

from semicert import MoebiusMap, normalize, uniform_hyperbolicity
from semicert.cli import main
from semicert.errors import InvalidMatrix

ACCEPTED = {
    "flat": [2, 0, 0, 1],
    "nested": [[2, 0], [0, 1]],
}
REJECTED = {
    "one-row": [[2, 0, 0, 1]],
    "ragged": [[2, 0, 0], [1]],
    "three": [2, 0, 0],
    "five": [2, 0, 0, 1, 1],
    "non-numeric": [2, "x", 0, 1],
    "huge-int": [10**400, 0, 0, 1],
}


def run_cli(tmp_path, command, raw):
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"schema": 1, "generators": [{"matrix": raw}]}))
    return CliRunner().invoke(main, [command, "--input", str(src)])


@pytest.mark.parametrize("raw", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_accepted_everywhere(tmp_path, raw):
    assert normalize(raw) == MoebiusMap.from_matrix(2.0, 0.0, 0.0, 1.0)
    assert uniform_hyperbolicity([raw]) is not None
    for command in ("classify", "certify", "cocycle"):
        assert run_cli(tmp_path, command, raw).exit_code == 0, command


@pytest.mark.parametrize("raw", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_everywhere(tmp_path, raw):
    with pytest.raises(InvalidMatrix):
        normalize(raw)
    with pytest.raises(InvalidMatrix):
        uniform_hyperbolicity([raw])
    for command in ("classify", "certify", "cocycle"):
        result = run_cli(tmp_path, command, raw)
        assert result.exit_code == 1, command
        assert "generators[0]" in result.output, command
