"""Rank the flat interpreter's locals by how often its loop touches them.

``_FlatStepper.run`` (:mod:`repro.sim.engine`) binds its most-used
locals to ``None`` in a block at the top of the function, so CPython
numbers them below 256 and their loads and stores need no
``EXTENDED_ARG`` prefix. This script re-derives that block: it runs the
benchmark's suite cells (14 Table II workloads x {LRU, dpPred+cbPred})
and scenario cells (tenant mixes, huge pages, Leeway, perceptron) at the
benchmark's budget on the batched engine, traces every opcode ``run``
executes, and counts each executed ``LOAD_FAST``/``STORE_FAST``/
``DELETE_FAST`` against its local. An access to a local numbered 256 or
above is reported at its ``EXTENDED_ARG`` prefix, so prefixes are
mapped to the access they extend and counted too.

The default budget is the benchmark's 40,000. Smaller budgets over-weight
the cold-cache paths: at 6,000 the LLC's free-way fill ran 0.505 times
per record, at 40,000 about 0.1 times.

It prints the executed bytecodes per record (all of them, and
``BINARY_OP`` alone) for the suite and the scenario cells; per cell and
over each group, the bytecodes per record executed in ``run`` and in
all frames while ``run`` is active (``run`` plus the listener hooks,
structure methods and helpers it calls, so a hook's cost shows too); the
:data:`HOT_LINES` source lines of ``run`` that execute the most bytecodes per
suite record (mapped through the code object's line table), every local
of ``run`` ranked by access count, with its current index (``*`` marks
a local that needs the prefix today) and whether it is in the hot
block, then the top ``--top`` names as the block to paste. It reports
only and changes nothing. Tracing every opcode is slow: the 28 suite
cells at budget 40,000 took 290-450 s to trace on a 2-core x86-64 host
under CPython 3.11, and the 8 scenario cells 80-90 s. CI runs it at
budget 8,000 as a report: bytecodes per record is a deterministic count,
so an interpreter change shows in it without timing noise.

Usage::

    PYTHONPATH=src python benchmarks/hot_locals.py [--budget 40000] [--top 200]
"""

from __future__ import annotations

import argparse
import dataclasses
import dis
import inspect
import os
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

from cells import scenario_cells, suite_cells  # noqa: E402

from repro.sim.engine import _FlatStepper  # noqa: E402

SEED = 42
HOT_LINES = 30  # source lines of ``run`` printed by bytecodes per record
EXTENDED_ARG = dis.opmap["EXTENDED_ARG"]


def access_sites(code) -> dict:
    """Offset of each local access in ``code`` -> the local's name.

    A prefixed access is keyed by its first ``EXTENDED_ARG``'s offset,
    the offset at which CPython reports the instruction to a tracer.
    """
    sites = {}
    start = None
    for ins in dis.get_instructions(code):
        if ins.opcode == EXTENDED_ARG:
            if start is None:
                start = ins.offset
            continue
        if ins.opcode in dis.haslocal:
            sites[ins.offset if start is None else start] = ins.argval
        start = None
    return sites


def count_opcodes(cells):
    """(executed instructions in ``run`` by offset, records run, and per
    cell its records, instructions executed in ``run`` and instructions
    executed in every frame while ``run`` is active: ``run`` itself and
    the hooks, structure methods and helpers it calls)."""
    code = _FlatStepper.run.__code__
    offsets = Counter()
    records = 0
    per_cell = []
    nested = 0  # instructions executed in frames ``run`` called
    active = False  # whether ``run`` is on the stack

    def per_opcode(frame, event, arg):
        nonlocal active
        if event == "opcode":
            offsets[frame.f_lasti] += 1
        elif event == "return":
            active = False
        return per_opcode

    def in_callee(frame, event, arg):
        nonlocal nested
        if event == "opcode":
            nested += 1
        return in_callee

    def per_call(frame, event, arg):
        nonlocal active
        if frame.f_code is code:
            active = True
            frame.f_trace_opcodes = True
            return per_opcode
        if active:
            frame.f_trace_opcodes = True
            return in_callee
        return None

    for cell in cells:
        trace = cell.trace()
        records += len(trace)
        machine = cell.machine()
        before_run = sum(offsets.values())
        before_nested = nested
        sys.settrace(per_call)
        try:
            machine.run(trace, engine="batched")
        finally:
            sys.settrace(None)
        if machine.engine_stats["mode"] != "flat":
            raise SystemExit(f"{cell.ident} did not run flat")
        in_run = sum(offsets.values()) - before_run
        per_cell.append((
            cell, len(trace), in_run, in_run + nested - before_nested,
        ))
    return offsets, records, per_cell


def count_accesses(offsets) -> Counter:
    """Executed local accesses in ``run``, by name."""
    names = Counter()
    for offset, name in access_sites(_FlatStepper.run.__code__).items():
        names[name] += offsets[offset]
    return names


def per_record(offsets, records: int) -> str:
    """Executed bytecodes per record, all and ``BINARY_OP`` alone."""
    binary = {
        ins.offset
        for ins in dis.get_instructions(_FlatStepper.run.__code__)
        if ins.opname == "BINARY_OP"
    }
    total = sum(offsets.values())
    ops = sum(count for offset, count in offsets.items() if offset in binary)
    return (
        f"{total / records:.1f} bytecodes per record, "
        f"{ops / records:.1f} of them BINARY_OP"
    )


def all_frames(per_cell) -> str:
    """Bytecodes per record in ``run`` and in all frames, per cell and
    over the group."""
    out = [f"  {'cell':<28}  {'run':>7}  {'all frames':>10}"]
    for cell, records, in_run, every in per_cell:
        out.append(
            f"  {cell.workload + '/' + cell.label:<28}  {in_run / records:>7.1f}  "
            f"{every / records:>10.1f}"
        )
    records = sum(c[1] for c in per_cell)
    out.append(
        f"  {'total':<28}  {sum(c[2] for c in per_cell) / records:>7.1f}  "
        f"{sum(c[3] for c in per_cell) / records:>10.1f}"
    )
    return "\n".join(out)


def hot_lines(offsets, records: int) -> list:
    """The :data:`HOT_LINES` source lines of ``run`` by executed bytecodes
    per record: (line number, bytecodes per record, source text)."""
    code = _FlatStepper.run.__code__
    line_of = {}
    for start, end, line in code.co_lines():
        for offset in range(start, end, 2):
            line_of[offset] = line
    per_line = Counter()
    for offset, count in offsets.items():
        per_line[line_of.get(offset)] += count
    source, first = inspect.getsourcelines(code)
    return [
        (
            line,
            count / records,
            "" if line is None else source[line - first].strip(),
        )
        for line, count in per_line.most_common(HOT_LINES)
    ]


def hot_block(names) -> list:
    """The leading ``a = b = ... = None`` statements' names, in order."""
    code = _FlatStepper.run.__code__
    block = []
    for ins in dis.get_instructions(code):
        if ins.opname in ("RESUME", "LOAD_CONST", "COPY", "NOP"):
            continue
        if ins.opname != "STORE_FAST":
            break
        block.append(ins.argval)
    return [n for n in block if n in names]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--budget", type=int, default=40000)
    parser.add_argument("--top", type=int, default=200)
    args = parser.parse_args()
    groups = {
        name: [dataclasses.replace(cell, budget=args.budget) for cell in cells]
        for name, cells in (
            ("suite", suite_cells(SEED)),
            ("scenario", scenario_cells(SEED)),
        )
    }
    offsets = Counter()
    lines = []
    for name, cells in groups.items():
        start = time.perf_counter()
        group, records, per_cell = count_opcodes(cells)
        elapsed = time.perf_counter() - start
        print(
            f"{len(cells)} {name} cells at budget {args.budget:,}, traced "
            f"in {elapsed:.0f} s: {per_record(group, records)}"
        )
        print(all_frames(per_cell))
        if name == "suite":
            lines = hot_lines(group, records)
        offsets += group
    print(f"\ntop {len(lines)} lines of run by bytecodes per suite record:")
    print(f"{'line':>5}  {'per rec':>7}  source")
    for line, rate, text in lines:
        print(f"{line if line is not None else '-':>5}  {rate:>7.2f}  {text}")
    print()
    counts = count_accesses(offsets)
    code = _FlatStepper.run.__code__
    varnames = code.co_varnames
    block = set(hot_block(varnames))
    ranked = sorted(varnames, key=lambda n: (-counts[n], varnames.index(n)))
    total = sum(counts.values())
    wide = sum(counts[n] for n in varnames if varnames.index(n) >= 256)
    print(
        f"{total:,} local accesses over {len(varnames)} locals, "
        f"{wide:,} of them to locals numbered 256 or above"
    )
    print(f"{'rank':>4}  {'accesses':>12}  {'index':>6}  block  name")
    for rank, name in enumerate(ranked, 1):
        index = varnames.index(name)
        mark = "*" if index >= 256 else " "
        print(
            f"{rank:>4}  {counts[name]:>12,}  {index:>5}{mark}  "
            f"{'yes' if name in block else '   '}    {name}"
        )
    top = [n for n in ranked[: args.top] if counts[n]]
    print(f"\ntop {len(top)} names, most accessed first:")
    print(" = ".join(top) + " = None")


if __name__ == "__main__":
    main()
