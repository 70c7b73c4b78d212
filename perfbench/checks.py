"""Reference checks of rendered answers.

A check receives a query's expected answer (``Query.expect``) and the
answers as the JSON renderer prints them (``render_answer_json``, decoded),
and returns None when they agree or a one-line reason when they do not.
The references are independent of the solver: textbook Hanoi moves, counts
and answer sequences worked out from the generated facts, and the values
the paper reports for its programs.
"""

from __future__ import annotations

import hashlib
import re

# p(X) with X constrained to differ from a and b, whatever X is named.
_STREAM_FIRST = re.compile(r"p\(\{[A-Z]+\.\\=\.\[a,b\]\}\)")
# "(in 12.345 ms)" in the text header and "time_ms": 12.345 in the JSON.
_TIME_TEXT = re.compile(r"\(in [0-9.]+ ms\)")
_TIME_JSON = re.compile(r'"time_ms": [0-9.eE+-]+')


def hanoi_moves(n, t0=0, src="a", dst="b", aux="c"):
    """The textbook move list for n disks, as ``move(From,To,Time)`` atoms."""
    if n == 0:
        return [], t0
    first, t1 = hanoi_moves(n - 1, t0, src, aux, dst)
    rest, t2 = hanoi_moves(n - 1, t1 + 1, aux, dst, src)
    return first + [f"move({src},{dst},{t1 + 1})"] + rest, t2


def check(expect: tuple, answers: list):
    kind = expect[0]
    if kind == "count":
        if len(answers) != expect[1]:
            return f"expected {expect[1]} answers, got {len(answers)}"
        return None
    if kind == "bindings":
        _, var, values = expect
        got = tuple(a["bindings"].get(var) for a in answers)
        if got != values:
            return f"expected {var} = {list(values)}, got {list(got)}"
        return None
    if kind == "hanoi":
        n = expect[1]
        if len(answers) != 1:
            return f"expected 1 answer, got {len(answers)}"
        (ans,) = answers
        if ans["bindings"].get("T") != str(2**n - 1):
            return f"expected T = {2**n - 1}, got {ans['bindings'].get('T')}"
        moves = sorted(a for a in ans["model"] if a.startswith("move("))
        if moves != sorted(hanoi_moves(n)[0]):
            return f"move set differs from the textbook {2**n - 1} moves"
        return None
    if kind == "stream":
        got = [(a["bindings"].get("Pr"), a["bindings"].get("Data")) for a in answers]
        if len(got) != 3 or [pr for pr, _ in got] != ["1", "2", "3"]:
            return f"expected priorities 1, 2, 3, got {got}"
        if not _STREAM_FIRST.fullmatch(got[0][1]) or got[1][1] != "q(b)" or got[2][1] != "p(a)":
            return f"unexpected stream data {got}"
        return None
    if kind == "yale":
        got = tuple((a["bindings"].get("T"), a["bindings"].get("Actions")) for a in answers)
        if got != expect[1]:
            return f"expected {list(expect[1])}, got {list(got)}"
        return None
    if kind == "tsp":
        got = [(a["bindings"].get("D"), a["bindings"].get("Cycle")) for a in answers]
        if got != [expect[1:]]:
            return f"expected {[expect[1:]]}, got {got}"
        return None
    raise ValueError(f"unknown reference kind {kind!r}")


def output_digest(texts: list, jsons: list) -> str:
    """Digest of a query's rendered answers with the timing figures masked."""
    h = hashlib.sha256()
    for text, js in zip(texts, jsons):
        h.update(_TIME_TEXT.sub("(in _ ms)", text).encode())
        h.update(b"\0")
        h.update(_TIME_JSON.sub('"time_ms": _', js).encode())
        h.update(b"\0")
    return h.hexdigest()
