"""``repro gp`` — GP regression on the command line, served or direct.

Train (cold-factorise the covariance into a store)::

    python -m repro gp train --kernel sqexp --n 1200 --length 0.3 \
        --store /tmp/factors

Predict (warm store; each test point is one solve request whose right-hand
side is its cross-covariance column, so concurrent predictions micro-batch
into panel sweeps)::

    python -m repro gp predict --kernel sqexp --n 1200 --length 0.3 \
        --store /tmp/factors --n-test 64 --profile gp.json

``--direct`` skips the service and predicts in process
(:meth:`~repro.gp.GPModel.predict`: one panel solve of the whole
cross-covariance); ``--pcg`` additionally refines the posterior mean with
H-preconditioned CG against the exact streamed covariance.  ``--url`` sends
the prediction solves to a running ``repro serve`` endpoint instead.  Every
mode folds the solved columns with the same ``gp.model._posterior``, so a
served prediction has the bits of the in-process one.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from ..flags import (add_problem, add_run, add_spec, add_store, add_timeout, add_url,
                     add_workers, cli_error, spec_from_args)
from ..geometry import GP_KERNELS

__all__ = ["gp_main"]


def _add_common_args(p: argparse.ArgumentParser) -> None:
    add_spec(p, GP_KERNELS)
    add_problem(p)
    add_run(p)
    add_store(p)
    p.set_defaults(n=800, eps=1e-6)
    p.add_argument("--length", type=float, default=0.25, help="length scale")
    p.add_argument("--signal", type=float, default=1.0, help="signal std dev")
    p.add_argument("--noise", type=float, default=0.1,
                   help="observation-noise std dev (nugget = noise^2)")


def _gp_section(spec, *, n_test, train_seconds, predict_seconds, **extra) -> dict:
    section = {
        "kernel": spec.kernel,
        "geometry": spec.geometry,
        "n_train": spec.n,
        "n_test": int(n_test),
        "length": spec.length,
        "signal": spec.signal,
        "noise": spec.noise,
        "eps": spec.eps,
        "train_seconds": float(train_seconds),
        "predict_seconds": float(predict_seconds),
    }
    if predict_seconds > 0 and n_test:
        section["predict_throughput_rps"] = n_test / predict_seconds
    section.update({k: v for k, v in extra.items() if v is not None})
    return section


def _train(args, spec, data) -> int:
    from ..geometry import streamed_matvec
    from ..service import FactorizationStore, build_solver, spec_fingerprint
    from .model import GPModel

    key = spec_fingerprint(spec)
    x, y, _, _ = data
    store = FactorizationStore(args.store, mmap=True)
    warm = key in store.keys()
    print(f"spec      : {spec.kernel} n={spec.n} nb={spec.effective_nb} "
          f"eps={spec.eps:g} length={spec.length:g} noise={spec.noise:g}")
    print(f"key       : {key[:16]}... ({'warm' if warm else 'cold'})")
    t0 = time.perf_counter()
    solver = store.get_or_build(key, lambda: build_solver(spec))
    train_s = time.perf_counter() - t0
    alpha = solver.solve(y)
    kern = GPModel(
        spec.kernel, length=spec.length, signal=spec.signal,
        noise=spec.noise,
    ).kernel_function(x)
    residual = np.linalg.norm(streamed_matvec(kern, x, alpha) - y) / np.linalg.norm(y)
    print(f"train     : {train_s:.3f} s "
          f"({'store hit' if warm else 'factorised'})")
    print(f"fit       : |alpha| = {np.linalg.norm(alpha):.6g}, "
          f"relative residual {residual:.2e}")
    if args.store:
        print(f"store     : {len(store.keys())} factorization(s) in {args.store}")
    return _maybe_profile(
        args, spec, mode="gp-train",
        gp=_gp_section(spec, n_test=0, train_seconds=train_s, predict_seconds=0.0),
    )


def _predict(args, spec, data) -> int:
    from ..core import TileHConfig
    from .model import GPModel, _posterior

    x, y, x_test, f_test = data
    print(f"spec      : {spec.kernel} n={spec.n} nb={spec.effective_nb} "
          f"eps={spec.eps:g} -> {args.n_test} test points")

    extra: dict = {}
    if args.direct:
        model = GPModel(spec.kernel, length=spec.length, signal=spec.signal,
                        noise=spec.noise,
                        config=TileHConfig(nb=spec.effective_nb, eps=spec.eps,
                                           leaf_size=spec.leaf_size))
        t0 = time.perf_counter()
        model.fit(x, y)
        train_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        mean, var = model.predict(x_test)
        predict_s = time.perf_counter() - t0
        if args.pcg:
            mean_pcg, kres = model.predict_pcg(x_test, rtol=args.pcg_rtol)
            drift = np.linalg.norm(mean_pcg - mean) / max(np.linalg.norm(mean_pcg), 1e-300)
            print(f"pcg       : {kres.iterations} iterations, "
                  f"{'converged' if kres.converged else 'NOT converged'}, "
                  f"final residual {kres.residuals[-1]:.2e}, "
                  f"direct-vs-pcg mean drift {drift:.2e}")
            mean = mean_pcg
            extra["krylov"] = {
                "iterations": kres.iterations,
                "converged": kres.converged,
                "final_residual": float(kres.residuals[-1]),
            }
        batch_width = None
        service_stats = None
    elif args.url is not None:
        from concurrent.futures import ThreadPoolExecutor

        from ..service.http import SolveClient

        model = GPModel(spec.kernel, length=spec.length, signal=spec.signal, noise=spec.noise)
        kern = model.kernel_function(x)
        ks = kern(x, x_test)
        train_s = 0.0
        t0 = time.perf_counter()
        # One kept-alive connection per pool thread, all closed with the
        # client; a default server admits 64 requests at once.
        with SolveClient(args.url) as client, \
                ThreadPoolExecutor(max_workers=min(args.n_test, 64)) as pool:
            columns = list(pool.map(
                lambda j: client.solve(spec.canonical(), ks[:, j], timeout=args.timeout),
                range(args.n_test),
            ))
        predict_s = time.perf_counter() - t0
        mean, var = _posterior(kern, ks, y, x_test, np.column_stack(columns))
        batch_width = None
        service_stats = None
    else:
        from ..service import FactorizationStore, SolveService

        model = GPModel(spec.kernel, length=spec.length, signal=spec.signal, noise=spec.noise)
        kern = model.kernel_function(x)
        ks = kern(x, x_test)
        try:
            service = SolveService(
                FactorizationStore(args.store, mmap=True),
                workers=args.workers,
                max_queue=args.n_test + 8,
                max_delay=0.05,
            )
        except ValueError as exc:
            return cli_error(exc)
        try:
            t0 = time.perf_counter()
            tickets = [service.submit(spec, ks[:, j]) for j in range(args.n_test)]
            columns = [t.result(timeout=args.timeout) for t in tickets]
            predict_s = time.perf_counter() - t0
        finally:
            service.close()
        train_s = 0.0  # folded into the first request's cold build
        mean, var = _posterior(kern, ks, y, x_test, np.column_stack(columns))
        service_stats = service.stats()
        batch = service_stats["batch_size"]
        batch_width = batch["mean"] if batch.get("count") else None
        sweeps = batch.get("count", 0)
        print(f"batching  : {args.n_test} predictions in {sweeps} panel sweep(s), "
              f"mean width {batch_width or 0:.2f}")

    rmse = float(np.sqrt(np.mean((mean - f_test) ** 2)))
    rate = f" ({args.n_test / predict_s:.1f} pred/s)" if predict_s > 0 else ""
    print(f"predict   : {predict_s * 1e3:.1f} ms for {args.n_test} points{rate}")
    print(f"posterior : mean RMSE {rmse:.4g} vs latent truth | "
          f"variance in [{var.min():.4g}, {var.max():.4g}]")
    return _maybe_profile(
        args, spec, mode="gp-predict", service=service_stats,
        gp=_gp_section(
            spec, n_test=args.n_test,
            train_seconds=train_s, predict_seconds=predict_s,
            batch_width_mean=batch_width, mean_rmse=rmse,
            var_min=float(var.min()), var_max=float(var.max()), **extra,
        ),
    )


def _maybe_profile(args, spec, *, mode, gp, service=None) -> int:
    if args.profile is None:
        return 0
    from ..obs import build_run_report, write_report

    probe = getattr(args, "_probe", None)
    meta = {"mode": mode, "kernel": spec.kernel, "n": spec.n}
    report = build_run_report(probe=probe, meta=meta, service=service, gp=gp)
    write_report(report, args.profile)
    print(f"profile   : run report written to {args.profile}")
    return 0


def gp_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro gp",
        description="Gaussian-process regression over the Tile-H Cholesky stack",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="factorise the covariance (cold train)")
    _add_common_args(train)

    predict = sub.add_parser("predict", help="posterior mean/variance at test points")
    _add_common_args(predict)
    add_workers(predict)
    add_timeout(predict)
    add_url(predict)
    predict.add_argument("--n-test", type=int, default=64, help="test points")
    predict.add_argument("--direct", action="store_true",
                         help="run the in-process prediction instead of the service")
    predict.add_argument("--pcg", action="store_true",
                         help="refine the posterior mean with H-preconditioned CG "
                         "(needs --direct)")
    predict.add_argument("--pcg-rtol", type=float, default=1e-8,
                         help="CG relative-residual tolerance for --pcg")

    args = parser.parse_args(argv)
    if getattr(args, "pcg", False) and not args.direct:
        return cli_error("--pcg needs --direct (the factors must be local)")
    from ..service import BadRequestError
    from .data import synthetic_gp_data

    try:
        spec = spec_from_args(args, kind="gp", length=args.length, signal=args.signal,
                              noise=args.noise)
        data = synthetic_gp_data(args.n, getattr(args, "n_test", 1), geometry=spec.geometry,
                                 noise=spec.noise, seed=args.seed)
    except (ValueError, BadRequestError) as exc:
        return cli_error(exc)

    run = _train if args.command == "train" else _predict
    if args.profile is not None:
        from ..obs import Instrumentation

        with Instrumentation() as probe:
            args._probe = probe
            return run(args, spec, data)
    return run(args, spec, data)
