"""Seeded random expressions as an oracle for the parser, the printer and
the derivative engine.

A fixed-seed generator builds expressions over (x1, x2, y1): trees at most
``HEIGHT`` tall with all eight functions, ``^`` with integer and real
exponents, and literals that fold to ``-0.0``.  Each expression must
print and reparse to the same tree.  At the fixed ``POINTS``, its value
and its three first partials hash to ``DIGEST``: the ``float.hex`` of each
number, or the class name of the exception its evaluation raises.  Its
jets of orders 1-3 must hold its value and its partial chains bit for bit,
its first and second partials must equal the numeric layer's bit for bit,
and each partial must match a central finite difference wherever the
steps 1e-4 and 1e-5 agree with each other.

When a change means to move the hashed values, print the records and the
new digest with

    PYTHONPATH=src python3 tests/test_expr_oracle.py

and name each expression whose record changed in CHANGES.md.
"""

import functools
import hashlib
import itertools
import math
import operator
import random

import pytest

from algcalc.errors import GeometryError
from algcalc.exprlang import (Bin, Call, Const, Neg, Num, Var, parse,
                              to_field, to_source)
from algcalc.jets import Point, eval_jet, fd_partial

from conftest import layer_partial

M, R = 2, 1
SEED = 20111
COUNT = 150
HEIGHT = 5
POINTS = [(0.7, -0.3, 1.2), (-1.3, 0.25, 0.6), (0.0, 1.5, -0.4)]

VARS = (Var("x1", 0), Var("x2", 1), Var("y1", 2))
UNARY = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")
NUMBERS = (0.0, 0.5, 1.0, 2.0, 3.0, 0.001, 2.5)
INTEGER_EXPONENTS = (0.0, 1.0, 2.0, 3.0, 4.0)
REAL_EXPONENTS = (0.5, 1.5, 2.5)

# What evaluation may raise at a point; anything else is a defect.
ERRORS = (GeometryError, ArithmeticError, ValueError)

# SHA-256 of ``records()``
DIGEST = "feab6687cfb6e503b6e08593fe05c39e538afe88b59bbd904f54e573fb0afb9e"


def leaf(rng, height):
    roll = rng.random()
    if roll < 0.6:
        return rng.choice(VARS)
    if roll < 0.8:
        return Num(rng.choice(NUMBERS))
    if roll < 0.9 or height < 2:
        return Const(rng.choice(("pi", "e")))
    return Neg(Num(0.0))


def exponent(rng, height):
    """An integer or real literal, negated at times, or any expression."""
    roll = rng.random()
    if roll < 0.8:
        value = rng.choice(INTEGER_EXPONENTS if roll < 0.5
                           else REAL_EXPONENTS)
        if height >= 2 and rng.random() < 0.3:
            return Neg(Num(value))
        return Num(value)
    return expr(rng, height)


def expr(rng, height):
    """A random tree at most ``height`` tall, a leaf counting 1; below the
    root, a fifth of the subtrees are leaves."""
    if height == 1 or (height < HEIGHT and rng.random() < 0.2):
        return leaf(rng, height)
    roll = rng.random()
    if roll < 0.35:
        return Bin(rng.choice("+-*/"), expr(rng, height - 1),
                   expr(rng, height - 1))
    if roll < 0.65:
        return Call(rng.choice(UNARY), (expr(rng, height - 1),))
    if roll < 0.75:
        return Neg(expr(rng, height - 1))
    base = expr(rng, height - 1)
    if roll < 0.9:
        return Bin("^", base, exponent(rng, height - 1))
    return Call("pow", (base, exponent(rng, height - 1)))


def trees():
    rng = random.Random(SEED)
    return [expr(rng, HEIGHT) for _ in range(COUNT)]


def children(tree):
    if isinstance(tree, Call):
        return tree.args
    if isinstance(tree, Neg):
        return (tree.operand,)
    if isinstance(tree, Bin):
        return (tree.left, tree.right)
    return ()


def nodes(tree):
    yield tree
    for child in children(tree):
        yield from nodes(child)


def height(tree):
    return 1 + max((height(c) for c in children(tree)), default=0)


def outcome(thunk):
    """``float.hex`` of what ``thunk`` returns, or the name of the error
    it raises."""
    try:
        return float(thunk()).hex()
    except ERRORS as err:
        return type(err).__name__


def records():
    """One line per expression and point: its source, the value and the
    three first partials."""
    lines = []
    for tree in trees():
        source = to_source(tree)
        field = to_field(tree, M, R)
        partials = [field.partial(i) for i in range(M + R)]
        for point in POINTS:
            coords = list(point)
            lines.append(" ".join(
                [source, "@", repr(point)] +
                [outcome(lambda g=g: g(coords)) for g in [field, *partials]]))
    return lines


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_generator_covers_the_grammar():
    seen = [node for tree in trees() for node in nodes(tree)]
    assert {n.name for n in seen if isinstance(n, Call)} == \
        set(UNARY) | {"pow"}
    powers = [n.right for n in seen if isinstance(n, Bin) and n.op == "^"]
    literals = [p.value for p in powers if isinstance(p, Num)]
    assert any(v.is_integer() for v in literals)
    assert any(not v.is_integer() for v in literals)
    assert Neg(Num(0.0)) in seen
    assert max(height(t) for t in trees()) == HEIGHT


def test_print_and_reparse_give_the_same_tree():
    for tree in trees():
        assert parse(to_source(tree), (M, R)) == tree


def test_values_and_partials_match_the_recorded_digest():
    assert digest(records()) == DIGEST


def test_jet_entries_are_the_partial_chains_bit_for_bit():
    # a jet holds the field's value and, for each sorted index tuple
    # (i, j, ...), the chain field.partial(i).partial(j)...; every
    # permutation of the tuple reads the same entry, and the jet raises
    # where the value or one of those chains raises
    for tree in trees():
        field = to_field(tree, M, R)
        chains = {(): field}
        for k in range(1, 4):
            for idx in itertools.combinations_with_replacement(range(M + R),
                                                               k):
                chains[idx] = chains[idx[:-1]].partial(idx[-1])
        for point in POINTS:
            coords = list(point)
            want = {idx: outcome(lambda g=g: g(coords))
                    for idx, g in chains.items()}
            for order in (1, 2, 3):
                raised = any(_raised(want[idx]) for idx in want
                             if len(idx) <= order)
                try:
                    jet = eval_jet(field, Point(point[:M], point[M:]), order)
                except ERRORS:
                    assert raised, (to_source(tree), point, order)
                    continue
                assert not raised, (to_source(tree), point, order)
                assert jet.value.hex() == want[()]
                tables = (jet.first, jet.second, jet.third)[:order]
                for k, table in enumerate(tables, 1):
                    for idx in itertools.product(range(M + R), repeat=k):
                        entry = functools.reduce(operator.getitem, idx, table)
                        assert entry.hex() == want[tuple(sorted(idx))], \
                            (to_source(tree), point, idx)


def test_partials_equal_the_numeric_layer_bit_for_bit():
    # the numeric first-order layer, run at each point on a field's graph,
    # is the reference for the layer over graph nodes, nested once for
    # second partials; where either raises, so must the other.  Along a
    # coordinate outside the dependence set both are an exact 0 unseen.
    compared = 0
    for tree in trees():
        field = to_field(tree, M, R)
        for i in sorted(field.deps):
            numeric = layer_partial(field, i)
            pairs = [(field.partial(i), numeric)]
            pairs += [(field.partial(i).partial(j),
                       layer_partial(numeric, j))
                      for j in sorted(field.deps)]
            for point in POINTS:
                coords = list(point)
                for symbolic, layer in pairs:
                    got = outcome(lambda: symbolic(coords))
                    want = outcome(lambda: layer(coords))
                    assert _raised(got) == _raised(want), \
                        (to_source(tree), point, got, want)
                    if not _raised(want):
                        compared += 1
                        assert got == want, (to_source(tree), point)
    assert compared > COUNT * len(POINTS)


def _raised(text):
    """Whether an ``outcome`` names an error class, not a number."""
    return text[:1].isupper()


def test_partials_match_finite_differences_where_the_steps_agree():
    compared = 0
    for tree in trees():
        field = to_field(tree, M, R)
        for point in POINTS:
            pt = Point(point[:M], point[M:])
            for i in range(M + R):
                try:
                    exact = field.partial(i)(list(point))
                    coarse = fd_partial(field, pt, i, 1e-4)
                    fine = fd_partial(field, pt, i, 1e-5)
                except ERRORS:
                    continue
                scale = max(1.0, abs(fine))
                if not (math.isfinite(coarse) and math.isfinite(fine)
                        and abs(coarse - fine) <= 1e-6 * scale):
                    continue
                compared += 1
                assert exact == pytest.approx(fine, rel=1e-5, abs=1e-5), \
                    (to_source(tree), point, i)
    assert compared > COUNT


if __name__ == "__main__":
    lines = records()
    print("\n".join(lines))
    print(digest(lines))
