"""The four case studies; ``derive`` builds their one-site seeded bugs at import."""

from __future__ import annotations

import ast
import functools
import linecache
from typing import Callable


def derive(fn: Callable, name: str, doc: str, *edits: tuple[str, str]) -> Callable:
    """``fn``'s def recompiled as ``name`` at its file and lines, with docstring
    ``doc``, recursive calls to ``name``, and each ``(old, new)`` edit made: the
    one expression that parses like ``old`` becomes ``new``. The def is compiled
    after its module's top-level imports, so the names they bind compile as there.

    Raises ``ValueError`` when ``old`` occurs other than once, or when ``fn`` is
    not the def at its own lines: a derived function's lines are its origin's."""
    code = fn.__code__
    imports, definitions = _parse("".join(linecache.getlines(code.co_filename, fn.__globals__)))
    definition = definitions.get(code.co_firstlineno)
    if getattr(definition, "name", None) != fn.__name__:
        raise ValueError(f"no def of {fn.__name__} at {code.co_filename}:{code.co_firstlineno}")
    for old, new in edits:
        edit = _Edit(old, new)
        definition = edit.visit(definition)
        if edit.sites != 1:
            raise ValueError(f"{old!r} occurs {edit.sites} times in {fn.__name__}, not once")
    definition = _Edit(fn.__name__, name).visit(definition)   # recursive calls, however many
    definition.name = name
    has_docstring = ast.get_docstring(definition) is not None
    docstring = ast.Expr(ast.copy_location(ast.Constant(doc), definition))
    definition.body = [ast.copy_location(docstring, definition), *definition.body[has_docstring:]]
    module = ast.Module([*imports, definition], type_ignores=[])
    namespace: dict = {}
    exec(compile(module, code.co_filename, "exec", dont_inherit=True), fn.__globals__, namespace)
    return namespace[name]


@functools.lru_cache(maxsize=1)
def _parse(source: str) -> tuple[list[ast.stmt], dict[int, ast.stmt]]:
    """A module's imports, and its top-level statements by first line. One entry
    suffices: a module's derivations run together, and ``_Edit`` copies its tree."""
    module = ast.parse(source)
    return ([node for node in module.body if isinstance(node, (ast.Import, ast.ImportFrom))],
            {node.lineno: node for node in module.body})


class _Edit:
    """Copies a tree, with each expression that parses like ``old`` replaced by
    ``new``; counts them."""

    def __init__(self, old: str, new: str) -> None:
        self.pattern = ast.parse(old, mode="eval").body
        self.wanted, self.new, self.sites = ast.dump(self.pattern), new, 0

    def visit(self, node):
        if isinstance(node, list):
            return [self.visit(child) if isinstance(child, ast.AST) else child for child in node]
        # dump only the nodes of the pattern's type: deriving runs at import
        if type(node) is type(self.pattern) and ast.dump(node) == self.wanted:
            self.sites += 1
            replacement = ast.parse(self.new, mode="eval").body
            for child in ast.walk(replacement):
                ast.copy_location(child, node)
            return replacement
        copy = type(node).__new__(type(node))
        copy.__dict__.update(vars(node))   # positions and leaf fields are shared
        for field in node._fields:
            value = getattr(node, field, None)
            if isinstance(value, (list, ast.AST)):
                setattr(copy, field, self.visit(value))
        return copy
