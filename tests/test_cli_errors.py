"""A value only the library rejects is still a command-line mistake: it exits
2 with one ``error:`` line, as argparse's own checks do, not a traceback."""

import pytest

from repro.__main__ import main

ARGVS = [
    ["--nb", "0"],
    ["--eps", "-1"],
    ["--leaf-size", "0"],
    ["--threads", "0"],
    ["gp", "train", "--n", "1"],
    ["gp", "train", "--nb", "0"],
    ["gp", "train", "--exec", "threaded", "--nworkers", "0"],
    ["serve", "--workers", "0"],
    ["serve", "--max-batch", "0"],
    ["gp", "predict", "--n-test", "0"],
]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_bad_value_exits_2_with_one_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
