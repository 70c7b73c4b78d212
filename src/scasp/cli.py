"""Command-line driver.

Loads one or more program files, runs a query (from ``-q`` or the last
embedded ``?-`` directive), and prints each answer as a justification
tree, model, and variable bindings — or as one JSON record per answer
with ``--json-lines``.  ``--dump-compiled`` prints the compiled program
instead of solving; ``--oracle`` prints the stable models of a small
ground program computed by the brute-force reference semantics.  These
three flags exclude one another.

Exit codes: 0 when at least one answer was found (or ``-n 0`` exhausted
an empty search without error), 1 when answers were requested but none
exist, 2 for usage, file, parse, compile, or solver-restriction errors,
for a closed standard output, and for any internal error (reported as
one ``scasp: internal error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys

from .compiler import check_query, compile_program, display_query, dump_compiled
from .engine import Engine
from .errors import ScaspError
from .oracle import atom_key, ground, stable_models
from .parser import parse_program, parse_query
from .render import render_answer, render_answer_json
from .terms import Lit, Program, format_goal

__all__ = ["main"]


def _build_parser():
    p = argparse.ArgumentParser(
        prog="scasp",
        description="Goal-directed answer set solver over dense domains.",
    )
    p.add_argument("files", nargs="+", help="program file(s)")
    p.add_argument("-q", "--query", help="query text, overriding any ?- in the files")
    p.add_argument(
        "-n", "--answers", type=int, default=0,
        help="maximum number of answers (0 = all; default 0)",
    )
    p.add_argument("--no-just", action="store_true", help="omit justification trees")
    p.add_argument("--no-model", action="store_true", help="omit models")
    # Each of these picks what is printed: any two together are a usage error.
    output = p.add_mutually_exclusive_group()
    output.add_argument(
        "--json-lines", action="store_true",
        help="print one JSON record per answer instead of text blocks",
    )
    output.add_argument(
        "--dump-compiled", action="store_true",
        help="print the compiled program (duals and consistency checks) and exit",
    )
    output.add_argument(
        "--oracle", action="store_true",
        help="enumerate stable models with the brute-force ground semantics",
    )
    return p


def _load(paths):
    program = Program()
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        part = parse_program(text, filename=path)
        program.rules.extend(part.rules)
        program.shows.update(part.shows)
        if part.query is not None:
            program.query = part.query
    return program


def main(argv=None) -> int:
    """Run the CLI and return its exit code.  An exception from any stage
    ends here, as one line on stderr and exit 2."""
    try:
        rc = _main(argv)
        # A closed stdout fails here, not in the interpreter's flush at exit.
        sys.stdout.flush()
        return rc
    except ScaspError as e:
        _complain(str(e))
    except OSError as e:
        _complain(f"scasp: {e}")
        if isinstance(e, BrokenPipeError):
            _send_nowhere(sys.stdout)
    except Exception as e:  # never let a crash pass as "no answers" (exit 1)
        _complain(f"scasp: internal error: {type(e).__name__}: {e}")
    return 2


def _complain(line):
    """Print line on stderr, unless stderr is closed too: then the line,
    and whatever else stderr holds, goes nowhere."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        _send_nowhere(sys.stderr)


def _send_nowhere(stream):
    """Point a closed stream at the null device: the interpreter flushes
    it again at exit, and that flush must not fail too."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    if args.answers < 0:
        print("scasp: -n must be >= 0", file=sys.stderr)
        return 2
    program = _load(args.files)

    if args.oracle:
        models = stable_models(ground(program))
        for m in models:
            atoms = [format_goal(Lit(p, t)) for p, t in sorted(m, key=atom_key)]
            print("{ %s }" % ", ".join(atoms))
        if not models:
            print("no")
            return 1
        return 0

    cp = compile_program(program)
    if args.dump_compiled:
        sys.stdout.write(dump_compiled(cp))
        return 0

    if args.query:
        query = parse_query(args.query)
        check_query(query)
    else:
        query = cp.query
    if query is None:
        print("scasp: no query (use -q or an embedded ?- directive)", file=sys.stderr)
        return 2

    if not args.json_lines:
        print(display_query(query))
        print()
    render = render_answer_json if args.json_lines else render_answer
    end = "\n" if args.json_lines else "\n\n"
    count = 0
    for ans in Engine(cp).run_query(query, args.answers):
        count += 1
        print(render(
            ans, cp.pred_info, cp.shows,
            with_model=not args.no_model,
            with_justification=not args.no_just,
        ), end=end)
    exhausted = args.answers == 0 or count < args.answers
    if exhausted and not args.json_lines:
        print("no")
    return 0 if count or args.answers == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
