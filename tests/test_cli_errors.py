"""A value only the library rejects is still a command-line mistake: it exits
2 with one ``error:`` line, as argparse's own checks do, not a traceback."""

import pytest

from repro.__main__ import main

ARGVS = [
    ["--nb", "0"],
    ["--eps", "-1"],
    ["--eps", "nan"],
    ["--eps", "inf"],
    ["--leaf-size", "0"],
    ["--threads", "0"],
    ["gp", "train", "--n", "1"],
    ["gp", "train", "--nb", "0"],
    ["serve", "--workers", "0"],
    ["gp", "predict", "--n-test", "0"],
    ["--format", "hmat", "--exec", "threaded"],
    ["--format", "hmat", "--nb", "125"],
    ["--exec", "threaded", "--nworkers", "0"],
]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_bad_value_exits_2_with_one_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["serve", "gp train", "gp predict"])
def test_served_commands_take_no_executor_flag(command, capsys):
    """A served or GP cold build always runs the eager executor, so these
    commands refuse ``--exec`` as argparse refuses any unknown flag."""
    with pytest.raises(SystemExit) as exit_:
        main([*command.split(), "--exec", "threaded"])
    assert exit_.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith("unrecognized arguments: --exec threaded")
