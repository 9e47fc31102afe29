"""Each parser's options, choices and defaults, pinned by literal.

The literals were recorded from the seven parsers (``main``, ``report``,
``trace``, ``serve``, ``request``, ``gp train``, ``gp predict``) before their
shared flags moved into ``repro.flags``.  The only differences allowed are
the settings removed on purpose: ``--mmap`` (the CLI stores always map),
serve's ``--exec-workers`` (now ``--nworkers``, as in ``main`` and ``gp``)
and the ``dm`` policy.  ``--help`` text is not compared: it depends on the
terminal width.
"""

import argparse

import pytest

from repro.__main__ import build_parser, report_main, trace_main
from repro.gp.cli import gp_main
from repro.service.cli import request_main, serve_main

#: Option (or positional) -> (choices, default), per parser.
SURFACE = {
    'main': {
        '--n': (None, 2000),
        '--precision': (['d', 'z'], 'd'),
        '--format': (['tile-h', 'hmat', 'blr'], 'tile-h'),
        '--nb': (None, None),
        '--eps': (None, 0.0001),
        '--leaf-size': (None, 64),
        '--method': (['lu', 'cholesky'], 'lu'),
        '--scheduler': (['ws', 'lws', 'prio', 'eager', 'dm'], 'prio'),
        '--threads': (None, [1, 2, 9, 18, 35]),
        '--exec': (['eager', 'threaded', 'process'], 'eager'),
        '--nworkers': (None, 2),
        '--priority-mode': (['static', 'bottom-level'], 'static'),
        '--nested': (None, False),
        '--nested-min-leaf': (None, 128),
        '--seed': (None, 0),
        '--racecheck': (None, False),
        '--profile': (None, None),
        '--chrome-trace': (None, None),
    },
    'report': {
        'path': (None, None),
        '--diff': (None, None),
        '--threshold': (None, 0.1),
    },
    'trace': {
        '--url': (None, None),
        '--report': (None, None),
        '--request': (None, None),
        '--limit': (None, 20),
        '--out': (None, 'requests.trace.json'),
    },
    'serve': {
        '--host': (None, '127.0.0.1'),
        '--port': (None, 8750),
        '--store': (None, None),
        '--budget-mb': (None, None),
        '--workers': (None, 2),
        '--fleet': (None, 0),
        '--hot-after': (None, 16),
        '--replicas': (None, 2),
        '--interactive-inflight': (None, 64),
        '--batch-inflight': (None, 256),
        '--interactive-slo': (None, None),
        '--batch-slo': (None, None),
        '--max-queue': (None, 64),
        '--max-batch': (None, 8),
        '--max-delay': (None, 0.002),
        '--max-retries': (None, 2),
        '--exec': (['eager', 'threaded', 'process'], 'eager'),
        '--exec-workers': (None, None),
        '--mmap': (None, False),
        '--profile': (None, None),
        '--trace-requests': (None, 64),
    },
    'request': {
        '--url': (None, 'http://127.0.0.1:8750'),
        '--kernel': (['laplace', 'helmholtz', 'gravity', 'exponential'], 'laplace'),
        '--n': (None, 2000),
        '--geometry': (['cylinder', 'sphere', 'plate'], 'cylinder'),
        '--nb': (None, None),
        '--eps': (None, 1e-06),
        '--leaf-size': (None, 64),
        '--method': (['lu', 'cholesky'], 'lu'),
        '--count': (None, 1),
        '--seed': (None, 0),
        '--timeout': (None, None),
        '--lane': (None, None),
        '--check': (None, False),
        '--stats': (None, False),
        '--shutdown': (None, False),
    },
    'gp train': {
        '--kernel': (['sqexp', 'matern12', 'matern32', 'matern52'], 'sqexp'),
        '--n': (None, 800),
        '--geometry': (['cylinder', 'sphere', 'plate'], 'cylinder'),
        '--length': (None, 0.25),
        '--signal': (None, 1.0),
        '--noise': (None, 0.1),
        '--nb': (None, None),
        '--eps': (None, 1e-06),
        '--leaf-size': (None, 64),
        '--seed': (None, 0),
        '--exec': (['eager', 'threaded', 'process'], 'eager'),
        '--nworkers': (None, 2),
        '--store': (None, None),
        '--mmap': (None, False),
        '--profile': (None, None),
    },
    'gp predict': {
        '--kernel': (['sqexp', 'matern12', 'matern32', 'matern52'], 'sqexp'),
        '--n': (None, 800),
        '--geometry': (['cylinder', 'sphere', 'plate'], 'cylinder'),
        '--length': (None, 0.25),
        '--signal': (None, 1.0),
        '--noise': (None, 0.1),
        '--nb': (None, None),
        '--eps': (None, 1e-06),
        '--leaf-size': (None, 64),
        '--seed': (None, 0),
        '--exec': (['eager', 'threaded', 'process'], 'eager'),
        '--nworkers': (None, 2),
        '--store': (None, None),
        '--mmap': (None, False),
        '--profile': (None, None),
        '--n-test': (None, 64),
        '--batch': (None, 8),
        '--workers': (None, 2),
        '--timeout': (None, None),
        '--url': (None, None),
        '--direct': (None, False),
        '--pcg': (None, False),
        '--pcg-rtol': (None, 1e-08),
    },
}

#: The gp CLI tests' common flags (tests/gp/test_cli.py).
GP_ARGS = ['--kernel', 'sqexp', '--n', '300', '--nb', '100', '--leaf-size', '40', '--eps', '1e-6',
           '--length', '0.4', '--noise', '0.05']

#: ``vars(parse_args(argv))`` for the argvs the CLI tests and the CI smoke runs use.
NAMESPACES = [
    ('main', [],
     {'n': 2000, 'precision': 'd', 'format': 'tile-h', 'nb': None, 'eps': 0.0001, 'leaf_size': 64,
      'method': 'lu', 'scheduler': 'prio', 'threads': [1, 2, 9, 18, 35], 'exec_mode': 'eager',
      'nworkers': 2, 'priority_mode': 'static', 'nested': False, 'nested_min_leaf': 128, 'seed': 0,
      'racecheck': False, 'profile': None, 'chrome_trace': None}),
    ('main', ['--n', '500', '--precision', 'z', '--format', 'blr', '--nb', '100', '--eps', '1e-5',
              '--scheduler', 'ws', '--threads', '1', '4', '--seed', '3'],
     {'n': 500, 'precision': 'z', 'format': 'blr', 'nb': 100, 'eps': 1e-05, 'leaf_size': 64,
      'method': 'lu', 'scheduler': 'ws', 'threads': [1, 4], 'exec_mode': 'eager', 'nworkers': 2,
      'priority_mode': 'static', 'nested': False, 'nested_min_leaf': 128, 'seed': 3,
      'racecheck': False, 'profile': None, 'chrome_trace': None}),
    ('main', ['--racecheck'],
     {'n': 2000, 'precision': 'd', 'format': 'tile-h', 'nb': None, 'eps': 0.0001, 'leaf_size': 64,
      'method': 'lu', 'scheduler': 'prio', 'threads': [1, 2, 9, 18, 35], 'exec_mode': 'eager',
      'nworkers': 2, 'priority_mode': 'static', 'nested': False, 'nested_min_leaf': 128, 'seed': 0,
      'racecheck': True, 'profile': None, 'chrome_trace': None}),
    ('main', ['--n', '400', '--nb', '100', '--threads', '1', '4'],
     {'n': 400, 'precision': 'd', 'format': 'tile-h', 'nb': 100, 'eps': 0.0001, 'leaf_size': 64,
      'method': 'lu', 'scheduler': 'prio', 'threads': [1, 4], 'exec_mode': 'eager', 'nworkers': 2,
      'priority_mode': 'static', 'nested': False, 'nested_min_leaf': 128, 'seed': 0,
      'racecheck': False, 'profile': None, 'chrome_trace': None}),
    ('main', ['--n', '300', '--format', 'hmat', '--method', 'cholesky'],
     {'n': 300, 'precision': 'd', 'format': 'hmat', 'nb': None, 'eps': 0.0001, 'leaf_size': 64,
      'method': 'cholesky', 'scheduler': 'prio', 'threads': [1, 2, 9, 18, 35],
      'exec_mode': 'eager', 'nworkers': 2, 'priority_mode': 'static', 'nested': False,
      'nested_min_leaf': 128, 'seed': 0, 'racecheck': False, 'profile': None,
      'chrome_trace': None}),
    ('main', ['--n', '250', '--format', 'hmat', '--threads', '1', '--racecheck'],
     {'n': 250, 'precision': 'd', 'format': 'hmat', 'nb': None, 'eps': 0.0001, 'leaf_size': 64,
      'method': 'lu', 'scheduler': 'prio', 'threads': [1], 'exec_mode': 'eager', 'nworkers': 2,
      'priority_mode': 'static', 'nested': False, 'nested_min_leaf': 128, 'seed': 0,
      'racecheck': True, 'profile': None, 'chrome_trace': None}),
    ('report', ['run.json'],
     {'path': 'run.json', 'diff': None, 'threshold': 0.1}),
    ('report', ['--diff', 'a.json', 'b.json'],
     {'path': None, 'diff': ['a.json', 'b.json'], 'threshold': 0.1}),
    ('trace', ['--url', 'http://127.0.0.1:8751', '--out', 'fleet-requests.trace.json'],
     {'url': 'http://127.0.0.1:8751', 'report': None, 'request': None, 'limit': 20,
      'out': 'fleet-requests.trace.json'}),
    ('serve', ['--port', '8750', '--store', '/tmp/factors', '--workers', '2', '--profile',
               'serve.json'],
     {'host': '127.0.0.1', 'port': 8750, 'store': '/tmp/factors', 'budget_mb': None, 'workers': 2,
      'fleet': 0, 'hot_after': 16, 'replicas': 2, 'interactive_inflight': 64,
      'batch_inflight': 256, 'interactive_slo': None, 'batch_slo': None, 'max_queue': 64,
      'max_batch': 8, 'max_delay': 0.002, 'max_retries': 2, 'exec_mode': 'eager',
      'exec_workers': None, 'mmap': False, 'profile': 'serve.json', 'trace_requests': 64}),
    ('serve', ['--port', '8751', '--store', '/tmp/fleet-factors', '--fleet', '2', '--workers', '1',
               '--profile', 'fleet.json', '--interactive-slo', '30', '--batch-slo', '60'],
     {'host': '127.0.0.1', 'port': 8751, 'store': '/tmp/fleet-factors', 'budget_mb': None,
      'workers': 1, 'fleet': 2, 'hot_after': 16, 'replicas': 2, 'interactive_inflight': 64,
      'batch_inflight': 256, 'interactive_slo': 30.0, 'batch_slo': 60.0, 'max_queue': 64,
      'max_batch': 8, 'max_delay': 0.002, 'max_retries': 2, 'exec_mode': 'eager',
      'exec_workers': None, 'mmap': False, 'profile': 'fleet.json', 'trace_requests': 64}),
    ('request', ['--url', 'http://127.0.0.1:8750', '--kernel', 'laplace', '--n', '300', '--nb',
                 '100', '--count', '2', '--check'],
     {'url': 'http://127.0.0.1:8750', 'kernel': 'laplace', 'n': 300, 'geometry': 'cylinder',
      'nb': 100, 'eps': 1e-06, 'leaf_size': 64, 'method': 'lu', 'count': 2, 'seed': 0,
      'timeout': None, 'lane': None, 'check': True, 'stats': False, 'shutdown': False}),
    ('request', ['--url', 'http://127.0.0.1:8750', '--stats', '--count', '0'],
     {'url': 'http://127.0.0.1:8750', 'kernel': 'laplace', 'n': 2000, 'geometry': 'cylinder',
      'nb': None, 'eps': 1e-06, 'leaf_size': 64, 'method': 'lu', 'count': 0, 'seed': 0,
      'timeout': None, 'lane': None, 'check': False, 'stats': True, 'shutdown': False}),
    ('request', ['--url', 'http://127.0.0.1:9', '--n', '300'],
     {'url': 'http://127.0.0.1:9', 'kernel': 'laplace', 'n': 300, 'geometry': 'cylinder',
      'nb': None, 'eps': 1e-06, 'leaf_size': 64, 'method': 'lu', 'count': 1, 'seed': 0,
      'timeout': None, 'lane': None, 'check': False, 'stats': False, 'shutdown': False}),
    ('gp', ['train', *GP_ARGS, '--store', 'store', '--exec', 'threaded'],
     {'command': 'train', 'kernel': 'sqexp', 'n': 300, 'geometry': 'cylinder', 'length': 0.4,
      'signal': 1.0, 'noise': 0.05, 'nb': 100, 'eps': 1e-06, 'leaf_size': 40, 'seed': 0,
      'exec_mode': 'threaded', 'nworkers': 2, 'store': 'store', 'mmap': False, 'profile': None}),
    ('gp', ['train', *GP_ARGS, '--profile', 'train.json'],
     {'command': 'train', 'kernel': 'sqexp', 'n': 300, 'geometry': 'cylinder', 'length': 0.4,
      'signal': 1.0, 'noise': 0.05, 'nb': 100, 'eps': 1e-06, 'leaf_size': 40, 'seed': 0,
      'exec_mode': 'eager', 'nworkers': 2, 'store': None, 'mmap': False, 'profile': 'train.json'}),
    ('gp', ['predict', *GP_ARGS, '--store', 'store', '--n-test', '24', '--batch', '4', '--profile',
            'predict.json'],
     {'command': 'predict', 'kernel': 'sqexp', 'n': 300, 'geometry': 'cylinder', 'length': 0.4,
      'signal': 1.0, 'noise': 0.05, 'nb': 100, 'eps': 1e-06, 'leaf_size': 40, 'seed': 0,
      'exec_mode': 'eager', 'nworkers': 2, 'store': 'store', 'mmap': False,
      'profile': 'predict.json', 'n_test': 24, 'batch': 4, 'workers': 2, 'timeout': None,
      'url': None, 'direct': False, 'pcg': False, 'pcg_rtol': 1e-08}),
    ('gp', ['predict', *GP_ARGS, '--direct', '--pcg', '--pcg-rtol', '1e-10', '--n-test', '16',
            '--profile', 'pcg.json'],
     {'command': 'predict', 'kernel': 'sqexp', 'n': 300, 'geometry': 'cylinder', 'length': 0.4,
      'signal': 1.0, 'noise': 0.05, 'nb': 100, 'eps': 1e-06, 'leaf_size': 40, 'seed': 0,
      'exec_mode': 'eager', 'nworkers': 2, 'store': None, 'mmap': False, 'profile': 'pcg.json',
      'n_test': 16, 'batch': 8, 'workers': 2, 'timeout': None, 'url': None, 'direct': True,
      'pcg': True, 'pcg_rtol': 1e-10}),
]


def _expected_surface(command):
    surface = dict(SURFACE[command])
    surface.pop("--mmap", None)
    if "--exec-workers" in surface:
        surface["--nworkers"] = surface.pop("--exec-workers")
    if command == "main":
        choices, default = surface["--scheduler"]
        surface["--scheduler"] = ([c for c in choices if c != "dm"], default)
    return surface


def _expected_namespace(namespace):
    namespace = dict(namespace)
    namespace.pop("mmap", None)
    if "exec_workers" in namespace:
        namespace["nworkers"] = namespace.pop("exec_workers")
    return namespace


class _Built(Exception):
    pass


def _parser(entry):
    """The parser a ``*_main`` entry point builds, caught at its ``parse_args``."""

    def stop(self, args=None, namespace=None):
        raise _Built(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(argparse.ArgumentParser, "parse_args", stop)
        with pytest.raises(_Built) as built:
            entry([])
    return built.value.args[0]


def _parsers():
    gp = _parser(gp_main)
    sub = next(a for a in gp._actions if isinstance(a, argparse._SubParsersAction))
    return {"main": build_parser(), "report": _parser(report_main),
            "trace": _parser(trace_main), "serve": _parser(serve_main),
            "request": _parser(request_main), "gp": gp,
            "gp train": sub.choices["train"], "gp predict": sub.choices["predict"]}


def _surface(parser):
    return {
        (a.option_strings[0] if a.option_strings else a.dest):
            (None if a.choices is None else list(a.choices), a.default)
        for a in parser._actions
        if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
    }


@pytest.mark.parametrize("command", list(SURFACE))
def test_parser_surface(command):
    assert _surface(_parsers()[command]) == _expected_surface(command)


@pytest.mark.parametrize("command, argv, namespace", NAMESPACES)
def test_parsed_namespace(command, argv, namespace):
    parsed = vars(_parsers()[command].parse_args(argv))
    assert parsed == _expected_namespace(namespace)
