"""Command-line flags shared by ``python -m repro`` and its subcommands.

Every flag that more than one command takes is declared here, once; a
command composes the groups it needs and differs from the others only
through ``set_defaults``.  Choices come from the library's own constants,
and values are checked by the library type each command builds from its
arguments right after parsing (:class:`~repro.core.TileHConfig`,
:class:`~repro.service.ProblemSpec`, the solve service): :func:`cli_error`
reports their ``ValueError``/``BadRequestError`` the way argparse reports a
bad flag, as one ``error:`` line and exit code 2.
"""

from __future__ import annotations

import sys

from .core import FACTOR_METHODS
from .geometry import GEOMETRIES

__all__ = [
    "add_problem", "add_spec", "add_method", "add_run", "add_store", "add_workers",
    "add_url", "add_timeout", "spec_from_args", "cli_error",
]


def add_problem(parser) -> None:
    """The problem size and its compression: --n --nb --eps --leaf-size --seed."""
    parser.add_argument("--n", type=int, default=2000,
                        help="number of unknowns (training points for gp)")
    parser.add_argument("--nb", type=int, default=None,
                        help="tile size NB (default max(64, n/16))")
    parser.add_argument("--eps", type=float, default=1e-4, help="compression accuracy")
    parser.add_argument("--leaf-size", type=int, default=64, help="dense leaf size")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed of the right-hand sides / synthetic targets")


def add_spec(parser, kernels) -> None:
    """What a problem spec names besides its size: --kernel (one of
    ``kernels``, default the first) and --geometry."""
    parser.add_argument("--kernel", choices=kernels, default=kernels[0],
                        help="interaction or covariance kernel")
    parser.add_argument("--geometry", choices=tuple(GEOMETRIES), default="cylinder",
                        help="point cloud")


def add_method(parser) -> None:
    parser.add_argument("--method", choices=FACTOR_METHODS, default="lu",
                        help="factorisation (cholesky needs an SPD kernel)")


def add_run(parser) -> None:
    """What the run records: --profile."""
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="write a schema-valid run report (JSON) to PATH; "
                        "view it with 'repro report PATH'")


def add_store(parser) -> None:
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="directory of persisted factorizations, memory-mapped "
                        "on load (default: in-memory only)")


def add_workers(parser) -> None:
    parser.add_argument("--workers", type=int, default=2,
                        help="solve-service worker threads (per fleet worker with --fleet)")


def add_url(parser) -> None:
    parser.add_argument("--url", default=None, help="base URL of a running `repro serve`")


def add_timeout(parser) -> None:
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-request deadline in seconds")


def spec_from_args(args, **fields):
    """The :class:`~repro.service.ProblemSpec` that :func:`add_problem` and
    :func:`add_spec` flags name, plus ``fields``; raises ``BadRequestError``."""
    from .service import ProblemSpec

    return ProblemSpec(kernel=args.kernel, n=args.n, geometry=args.geometry, nb=args.nb,
                       eps=args.eps, leaf_size=args.leaf_size, **fields)


def cli_error(message) -> int:
    """Report a bad command line: one ``error:`` line on stderr, exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2
