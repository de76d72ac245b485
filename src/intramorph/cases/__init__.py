"""The four case studies; ``derive`` builds their one-site seeded bugs at import."""

from __future__ import annotations

import ast
import linecache
from typing import Callable


def derive(fn: Callable, name: str, doc: str, *edits: tuple[str, str]) -> Callable:
    """``fn``'s def recompiled as ``name`` at its file and lines, with docstring
    ``doc``, recursive calls to ``name``, and each ``(old, new)`` edit made: the
    one expression that parses like ``old`` becomes ``new``. The def is compiled
    after its module's imports, so ``np.count_nonzero(...)`` compiles as there.

    Raises ``ValueError`` when ``old`` occurs other than once, or when ``fn`` is
    not the def at its own lines: a derived function's lines are its origin's."""
    code = fn.__code__
    module = ast.parse("".join(linecache.getlines(code.co_filename, fn.__globals__)))
    definition = {node.lineno: node for node in module.body}.get(code.co_firstlineno)
    if getattr(definition, "name", None) != fn.__name__:
        raise ValueError(f"no def of {fn.__name__} at {code.co_filename}:{code.co_firstlineno}")
    for old, new in edits:
        edit = _Edit(old, new)
        edit.visit(definition)
        if edit.sites != 1:
            raise ValueError(f"{old!r} occurs {edit.sites} times in {fn.__name__}, not once")
    _Edit(fn.__name__, name).visit(definition)   # recursive calls, however many
    definition.name = name
    has_docstring = ast.get_docstring(definition) is not None
    definition.body = [ast.Expr(ast.Constant(doc)), *definition.body[has_docstring:]]
    module.body = [node for node in module.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))] + [definition]
    namespace: dict = {}
    exec(compile(ast.fix_missing_locations(module), code.co_filename, "exec", dont_inherit=True),
         fn.__globals__, namespace)
    return namespace[name]


class _Edit(ast.NodeTransformer):
    """Replaces each expression that parses like ``old`` by ``new``; counts them."""

    def __init__(self, old: str, new: str) -> None:
        self.pattern = ast.parse(old, mode="eval").body
        self.wanted, self.new, self.sites = ast.dump(self.pattern), new, 0

    def visit(self, node):
        # dump only the nodes of the pattern's type: deriving runs at import
        if type(node) is not type(self.pattern) or ast.dump(node) != self.wanted:
            return self.generic_visit(node)
        self.sites += 1
        replacement = ast.parse(self.new, mode="eval").body
        for child in ast.walk(replacement):
            ast.copy_location(child, node)
        return replacement
