"""Unit tests for the command-line driver (python -m repro)."""

import json

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.n == 2000 and args.precision == "d" and args.format == "tile-h"

    def test_all_flags(self):
        args = build_parser().parse_args(
            [
                "--n", "500", "--precision", "z", "--format", "blr",
                "--nb", "100", "--eps", "1e-5", "--scheduler", "ws",
                "--threads", "1", "4", "--seed", "3",
            ]
        )
        assert args.n == 500 and args.nb == 100 and args.threads == [1, 4]

    def test_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--format", "dense"])


class TestMain:
    def test_tile_h_run(self, capsys):
        rc = main(["--n", "400", "--nb", "100", "--threads", "1", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "forward error" in out
        assert "compression" in out
        assert "virtual-machine replay" in out

    def test_hmat_run(self, capsys):
        rc = main(["--n", "300", "--format", "hmat", "--threads", "1"])
        assert rc == 0
        assert "forward error" in capsys.readouterr().out

    def test_blr_run(self, capsys):
        rc = main(["--n", "300", "--format", "blr", "--nb", "100", "--threads", "1"])
        assert rc == 0

    def test_complex_run(self, capsys):
        rc = main(["--n", "300", "--precision", "z", "--nb", "100", "--threads", "1"])
        assert rc == 0

    def test_invalid_n(self, capsys):
        assert main(["--n", "1"]) == 2

    def test_cholesky_rejected_for_hmat(self, capsys):
        rc = main(["--n", "300", "--format", "hmat", "--method", "cholesky"])
        assert rc == 2

    def test_racecheck_run(self, capsys):
        rc = main(["--n", "300", "--nb", "100", "--threads", "1", "--racecheck"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "racecheck" in out
        assert "0 errors" in out
        assert "validated as linear extensions" in out

    def test_racecheck_hmat_run(self, capsys):
        rc = main(["--n", "250", "--format", "hmat", "--threads", "1", "--racecheck"])
        assert rc == 0
        assert "racecheck" in capsys.readouterr().out

    def test_every_tile_h_run_validates_its_trace(self, capsys):
        rc = main(["--n", "300", "--nb", "100", "--threads", "1"])
        assert rc == 0
        assert "eager events validated as a linear extension" in capsys.readouterr().out

    def test_eager_chrome_trace_is_written(self, tmp_path, capsys):
        path = tmp_path / "run.trace.json"
        rc = main(["--n", "300", "--nb", "100", "--threads", "1", "--chrome-trace", str(path)])
        assert rc == 0
        events = json.loads(path.read_text())["traceEvents"]
        assert any(e.get("ph") == "X" for e in events)
        assert "Chrome trace written" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["hmat", "blr"])
    def test_every_format_writes_a_chrome_trace(self, fmt, tmp_path, capsys):
        path = tmp_path / "run.trace.json"
        nb = [] if fmt == "hmat" else ["--nb", "125"]  # hmat factors one tile
        rc = main(["--n", "250", "--format", fmt, *nb, "--threads", "1",
                   "--chrome-trace", str(path)])
        assert rc == 0
        events = json.loads(path.read_text())["traceEvents"]
        assert any(e.get("ph") == "X" for e in events)
        out = capsys.readouterr().out
        assert "events validated as a linear extension" in out
        assert "Chrome trace written" in out

    def test_hmat_run_report_states_what_ran(self, tmp_path, capsys):
        """HMAT factors with one tile (``nb = n``) and runs its ``pack``
        steps: the report says so."""
        path = tmp_path / "run.json"
        rc = main(["--n", "300", "--format", "hmat", "--threads", "1",
                   "--profile", str(path)])
        assert rc == 0
        report = json.loads(path.read_text())
        assert report["meta"]["nb"] == 300
        assert report["kinds"]["pack"]["count"] > 0

    def test_hmat_header_states_the_nb_it_factors_with(self, capsys):
        """HMAT factors with one tile: the header says ``nb = n``, as the
        run report's ``meta.nb`` does, not the tile size of another format
        (``--nb`` with hmat is refused, ``tests/test_cli_errors.py``)."""
        rc = main(["--n", "300", "--format", "hmat", "--threads", "1"])
        assert rc == 0
        assert "format    : hmat (nb=300," in capsys.readouterr().out

    def test_racecheck_flag_parsed(self):
        args = build_parser().parse_args(["--racecheck"])
        assert args.racecheck is True
        assert build_parser().parse_args([]).racecheck is False


class TestServeCLI:
    def test_serve_and_request_end_to_end(self, tmp_path, capsys):
        """Boot a real server in-thread, drive it with `repro request`."""
        import threading
        import time

        from repro.service import FactorizationStore, SolveService, make_server
        from repro.service.cli import request_main

        svc = SolveService(FactorizationStore(tmp_path / "store"), workers=1)
        server = make_server(svc)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        try:
            rc = request_main([
                "--url", url, "--kernel", "laplace", "--n", "300",
                "--nb", "100", "--count", "2", "--check",
            ])
            assert rc == 0
            out = capsys.readouterr().out
            assert "forward error" in out
            rc = request_main(["--url", url, "--stats", "--count", "0"])
            assert rc == 0
            assert '"completed": 2' in capsys.readouterr().out
        finally:
            server.shutdown()
            server.server_close()
            svc.close()

    def test_request_unreachable_server(self, capsys):
        from repro.service.cli import request_main

        rc = request_main(["--url", "http://127.0.0.1:9", "--n", "300"])
        assert rc == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_request_rejects_bad_args(self):
        from repro.service.cli import request_main

        with pytest.raises(SystemExit):
            request_main(["--kernel", "nope"])
