"""Guard the flat interpreter's hot-local block.

``_FlatStepper.run`` binds its most-used locals to ``None`` in a block
at the top of the function, so CPython numbers them below 256 and their
loads need no ``EXTENDED_ARG`` prefix. The block is kept by hand and
re-derived from the ranking ``benchmarks/hot_locals.py`` prints (access
counts over the benchmark's cells; report-only, too slow for CI). This
test fails when the block outgrows the 256 cheap slots or keeps a name
the interpreter no longer uses.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

from repro.sim.engine import _FlatStepper


def _hot_block():
    """(names bound by the leading ``a = b = ... = None`` statements,
    names the rest of ``run`` reads or writes)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(_FlatStepper.run)))
    body = tree.body[0].body[1:]  # skip the docstring
    names = []
    for index, stmt in enumerate(body):
        if not (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is None
            and all(isinstance(t, ast.Name) for t in stmt.targets)
        ):
            break
        names += [t.id for t in stmt.targets]
    used = {
        node.id
        for stmt in body[index:]
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name)
    }
    return names, used


def test_hot_block_is_not_empty_and_has_no_duplicates():
    names, _ = _hot_block()
    assert len(names) >= 100
    assert len(names) == len(set(names))


def test_every_hot_local_has_a_one_byte_index():
    names, _ = _hot_block()
    varnames = _FlatStepper.run.__code__.co_varnames
    wide = [n for n in names if varnames.index(n) >= 256]
    assert not wide, f"hot locals numbered 256 or above: {wide}"


def test_every_hot_local_is_still_used():
    names, used = _hot_block()
    dead = [n for n in names if n not in used]
    assert not dead, f"hot-local block names unused in run(): {dead}"
