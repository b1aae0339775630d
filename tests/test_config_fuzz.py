"""Seeded config fuzzing: every malformed config ends in exit 0, 1 or 2.

Each case takes one fixture, sets one key path of it to a bad value (a
value of another JSON type, an overflowing constant, a deeply
parenthesised expression or an empty grid), or swaps two of its dims, and
runs one command on it in process with ``--points 2``.  Nothing may escape
``cli.main``; on exit 0 or 1 stdout is one JSON report, on exit 2 it is
empty.  The cases come from ``random.Random(SEED)``, so they are the same
on every run.
"""

import contextlib
import io
import json
import random

import pytest

from algcalc import cli

from conftest import FIXTURES

SEED = 11
CASES = 80

COMMANDS = [["check-structure"], ["metrizability"], ["finsler-check"],
            ["transform-check"], ["report"]] + \
    [["connection", kind] for kind in cli.CONNECTION_KINDS]

WRONG_TYPES = [None, True, 0, 2.5, "x1", [1], {"a": 1}]
DEEP = "(" * 2000 + "x1" + ")" * 2000


def key_paths(node, path=()):
    """Every key path below ``node``, parents before children."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from key_paths(child, path + (key,))


def mutate(rng, config):
    """``config`` with one bad value, and a description of the change."""
    if rng.random() < 0.1:
        dims = config["dims"]
        a, b = rng.sample(sorted(dims), 2)
        dims[a], dims[b] = dims[b], dims[a]
        return f"dims {a} <-> {b}"
    paths = list(key_paths(config))
    # a depth first, so that top-level sections are hit as often as the
    # entries of their grids
    depth = rng.randint(1, max(map(len, paths)))
    path = rng.choice([p for p in paths if len(p) == depth])
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    value = rng.choice(
        [rng.choice([v for v in WRONG_TYPES if type(v) is not type(old)]),
         "1e308*10", DEEP, []])
    parent[path[-1]] = value
    return f"{'.'.join(map(str, path))} = {str(value)[:20]}"


def build_cases():
    rng = random.Random(SEED)
    fixtures = sorted(FIXTURES.glob("*.json"))
    cases = []
    for _ in range(CASES):
        fixture = rng.choice(fixtures)
        config = json.loads(fixture.read_text())
        change = mutate(rng, config)
        command = rng.choice(COMMANDS)
        cases.append((fixture.stem, change, command, config))
    return cases


CASE_LIST = build_cases()


@pytest.mark.parametrize("fixture, change, command, config", CASE_LIST,
                         ids=[f"case{i}" for i in range(len(CASE_LIST))])
def test_malformed_config_ends_in_an_exit_code(tmp_path, fixture, change,
                                               command, config):
    target = tmp_path / "config.json"
    target.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*command, str(target), "--points", "2"])
    where = f"{fixture}: {change}; {' '.join(command)}"
    assert code in (0, 1, 2), where
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), \
            where
    else:
        assert json.loads(out.getvalue())["pass"] is (code == 0), where
