"""Text and JSON presentation of answers.

Variables are renamed per answer: the justification tree is walked first,
then the model, then the query bindings, and each distinct unbound variable
gets the next name in A..Z, AA, AB, ...  A variable with an attached
constraint view prints inline as its store, e.g. ``{A.>.2, A.<.3}`` or
``{A.\\=.[a,b]}``, so every occurrence shows the knowledge active in the
answer.  Bound variables print as their value.

The justification layout writes one node per line: a node with children
ends in `` :-`` and indents its children three further columns; a leaf ends
in ``,`` when a sibling follows and in ``.`` when it closes its group, in
one pass that builds each depth's indentation once.
"""

from __future__ import annotations

import json

from .engine import Answer, Node
from .linear import OP_TEXT
from .terms import format_goal, format_number, format_term

__all__ = ["Renderer", "render_answer", "render_answer_json"]


class _StoreNames:
    """Dict-like view handing format_term the store-annotated variable text."""

    def __init__(self, renderer):
        self.renderer = renderer

    def __contains__(self, vid):
        return True

    def __getitem__(self, vid):
        return self.renderer._var_text(vid)


class Renderer:
    """Renders one answer; holds the per-answer variable naming."""

    def __init__(self, answer: Answer, pred_info=None, shows=None):
        self.answer = answer
        self.pred_info = pred_info or {}
        self.shows = shows or set()
        self.names = {vid: _name_for(i) for i, vid in enumerate(answer.views)}
        self._store_names = _StoreNames(self)

    # -- terms with inline stores -------------------------------------------

    def _var_text(self, vid):
        name = self.names.get(vid)
        if name is None:
            name = self.names[vid] = _name_for(len(self.names))
        view = self.answer.views.get(vid, ("top",))
        if view[0] == "neq":
            items = sorted((self.term_str(t) for t in view[1]))
            return "{%s%s[%s]}" % (name, OP_TEXT["!="], ",".join(items))
        if view[0] == "lin":
            parts = [
                "%s%s%s" % (name, OP_TEXT[op], format_number(val))
                for op, val in view[1]
            ]
            return "{%s}" % ", ".join(parts)
        return name

    def term_str(self, t):
        return format_term(t, names=self._store_names)

    # -- sections -----------------------------------------------------------

    def _node_label(self, node: Node):
        label = format_goal(node.goal, self._store_names, self.pred_info)
        if node.kind == "chs" or node.kind == "proved":
            return "%s(%s)" % (node.kind, label)
        return label

    def justification_text(self):
        # A stack of (node, depth, last), as a proof may be deeper than the
        # recursion limit; pads[d] breaks the line and indents to depth d.
        out, pads = [], ["\n"]
        label = self._node_label
        roots = self.answer.justification
        stack = [(node, 0, i == 0) for i, node in enumerate(reversed(roots))]
        while stack:
            node, depth, last = stack.pop()
            if depth == len(pads):
                pads.append(pads[-1] + "   ")
            kids = node.children
            if kids:
                out += (pads[depth], label(node), " :-")
                depth += 1
                stack.append((kids[-1], depth, True))
                for kid in kids[-2::-1]:
                    stack.append((kid, depth, False))
            else:
                out += (pads[depth], label(node), "." if last else ",")
        if out:
            out[0] = ""  # no line break before the first line
        return "".join(out)

    def _model_labels(self):
        atoms = self.answer.model
        if self.shows:
            atoms = [lit for lit in atoms if lit.key in self.shows]
        return [format_goal(lit, self._store_names, self.pred_info) for lit in atoms]

    def model_text(self):
        return "[ %s ]" % ", ".join(self._model_labels())

    def bindings_text(self):
        items = [(n, t) for n, t in self.answer.bindings if not n.startswith("_")]
        if not items:
            return ""
        lines = []
        for i, (name, t) in enumerate(items):
            end = " ? " if i == len(items) - 1 else ","
            lines.append("%s = %s%s" % (name, self.term_str(t), end))
        return "\n".join(lines)

    def json_object(self, with_model=True, with_justification=True):
        obj = {
            "answer": self.answer.number,
            "time_ms": round(self.answer.time_ms, 3),
            "bindings": {
                n: self.term_str(t)
                for n, t in self.answer.bindings
                if not n.startswith("_")
            },
        }
        if with_model:
            obj["model"] = self._model_labels()
        if with_justification:
            obj["justification"] = [
                self._json_node(n) for n in self.answer.justification
            ]
        return obj

    def _json_node(self, node: Node):
        out = {"label": self._node_label(node)}
        if node.children:
            out["children"] = [self._json_node(c) for c in node.children]
        return out


def _name_for(i):
    letters = ""
    while True:
        letters = chr(ord("A") + i % 26) + letters
        i = i // 26 - 1
        if i < 0:
            return letters


def render_answer(answer: Answer, pred_info=None, shows=None,
                  with_model=True, with_justification=True):
    """Full text block for one answer."""
    r = Renderer(answer, pred_info, shows)
    parts = ["Answer %d\t(in %.3f ms):" % (answer.number, answer.time_ms), ""]
    if with_justification:
        parts.append(r.justification_text())
        parts.append("")
    if with_model:
        parts.append(r.model_text())
        parts.append("")
    b = r.bindings_text()
    if b:
        parts.append(b)
    while parts and parts[-1] == "":
        parts.pop()
    return "\n".join(parts)


def render_answer_json(answer: Answer, pred_info=None, shows=None,
                       with_model=True, with_justification=True):
    obj = Renderer(answer, pred_info, shows).json_object(with_model, with_justification)
    try:
        return json.dumps(obj)
    except RecursionError:
        # From Python 3.12 the C encoder stops at a fixed nesting depth, below
        # a deep justification's; the pure-Python encoder writes the same text.
        return "".join(json.JSONEncoder().iterencode(obj))
