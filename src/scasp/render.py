"""Text and JSON presentation of answers.

Variables are renamed per answer: the justification tree is walked first,
then the model, then the query bindings, and each distinct unbound variable
gets the next name in A..Z, AA, AB, ...  A variable with an attached
constraint view prints inline as its store, e.g. ``{A.>.2, A.<.3}`` or
``{A.\\=.[a,b]}``, so every occurrence shows the knowledge active in the
answer; each variable's text is made once per answer.  Bound variables
print as their value.

The justification layout writes one node per line: a node with children
ends in `` :-`` and indents its children three further columns; a leaf ends
in ``,`` when a sibling follows and in ``.`` when it closes its group, in
one pass that builds each depth's indentation once.  The JSON record is
written by the encoder but for its justification, which is written with an
explicit stack and spliced in as its last field.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .engine import Answer, Node
from .linear import OP_TEXT
from .terms import format_goal, format_number, format_term

__all__ = ["Renderer", "render_answer", "render_answer_json"]


class Renderer:
    """Renders one answer; holds the per-answer variable naming."""

    def __init__(self, answer: Answer, pred_info=None, shows=None):
        self.answer = answer
        self.pred_info = pred_info or {}
        self.shows = shows or set()
        # Each unbound variable's text, view included, made once per answer.
        self.texts = {
            vid: _view_text(_name_for(i), view)
            for i, (vid, view) in enumerate(answer.views.items())
        }

    def term_str(self, t):
        return format_term(t, names=self.texts)

    # -- sections -----------------------------------------------------------

    def _node_label(self, node: Node):
        label = format_goal(node.goal, self.texts, self.pred_info)
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
        return [format_goal(lit, self.texts, self.pred_info) for lit in atoms]

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

    def json_object(self, with_model=True):
        """The record's fields before the justification."""
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
        return obj

    def justification_json(self):
        """The justification as a JSON list of {"label": ..., "children":
        [...]} objects, a leaf without "children".  As justification_text,
        it walks with an explicit stack: a proof may be deeper than the
        recursion limit, and than the JSON encoder's nesting limit."""
        out, todo = ["["], ["]"]
        _push_nodes(todo, self.answer.justification)
        while todo:
            e = todo.pop()
            if e.__class__ is str:
                out.append(e)
                continue
            # What json.dumps writes for a string, without its dispatch.
            out += ('{"label": ', encode_basestring_ascii(self._node_label(e)))
            if e.children:
                out.append(', "children": [')
                todo.append("]}")
                _push_nodes(todo, e.children)
            else:
                out.append("}")
        return "".join(out)


def _push_nodes(todo, nodes):
    """Push nodes on a stack, with the separators between them, so that
    they come off it in order."""
    for i in range(len(nodes) - 1, -1, -1):
        todo.append(nodes[i])
        if i:
            todo.append(", ")


def _view_text(name, view):
    """A variable's name, with its view as a store if it has one."""
    if view[0] == "neq":
        items = sorted(format_term(t) for t in view[1])  # ground terms
        return "{%s%s[%s]}" % (name, OP_TEXT["!="], ",".join(items))
    if view[0] == "lin":
        parts = [
            "%s%s%s" % (name, OP_TEXT[op], format_number(val))
            for op, val in view[1]
        ]
        return "{%s}" % ", ".join(parts)
    return name


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
    r = Renderer(answer, pred_info, shows)
    text = json.dumps(r.json_object(with_model))
    if not with_justification:
        return text
    return '%s, "justification": %s}' % (text[:-1], r.justification_json())
