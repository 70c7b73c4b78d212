"""Loading a program: parsing and compiling make no reference cycles, so they
run with automatic cyclic collection paused, and leave the caller's
collector setting as they found it."""

import gc
from contextlib import contextmanager

import pytest

from scasp.compiler import compile_program
from scasp.errors import CompileError, ParseError
from scasp.parser import parse_program

from helpers import ROOT


def _chain(n):
    """The deep workload's chain shape: p0 :- p1. ... p<n>."""
    return "".join(f"p{i} :- p{i + 1}.\n" for i in range(n)) + f"p{n}.\n"


def _family(persons):
    """The wide workload's shape: person, age and parent facts under a few
    rules, with integer and rational ages."""
    lines = [f"person(p{i}). age(p{i},{18 + i % 150}/2)." for i in range(persons)]
    lines += [f"parent(p{i // 2},p{i})." for i in range(1, persons)]
    lines += [
        "grandparent(X,Z) :- parent(X,Y), parent(Y,Z).",
        "adult(X) :- person(X), age(X,A), A .>=. 18.",
        "young(X) :- person(X), age(X,A), A .<. 18.",
    ]
    return "\n".join(lines) + "\n"


@contextmanager
def _collector(on):
    """Automatic collection switched on or off for the block, then restored."""
    was_on = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_on else gc.disable)()


def test_loading_makes_no_cyclic_garbage():
    texts = [path.read_text() for path in sorted((ROOT / "tests" / "programs").glob("*.pl"))]
    texts += [_chain(2000), _family(300)]
    gc.collect()
    with _collector(False):
        for text in texts:
            compile_program(parse_program(text))
        assert gc.collect() == 0


@pytest.mark.parametrize("on", [True, False])
def test_loading_keeps_the_callers_collector_setting(on):
    with _collector(on):
        program = parse_program("p(a). q(X) :- not p(X).")
        assert gc.isenabled() is on
        compile_program(program)
        assert gc.isenabled() is on
        with pytest.raises(ParseError):
            parse_program("p(a")
        assert gc.isenabled() is on
        with pytest.raises(CompileError):
            compile_program(parse_program("not_p(a)."))
        assert gc.isenabled() is on


def test_no_collection_runs_while_a_program_loads():
    text = _chain(5000)
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    with _collector(True):
        gc.callbacks.append(hook)
        try:
            program = parse_program(text)
            parsed = len(starts)
            compile_program(program)
            compiled = len(starts) - parsed
        finally:
            gc.callbacks.remove(hook)
    # At most the one collection deferred to the end of each call.
    assert parsed <= 1 and compiled <= 1, (parsed, compiled)
