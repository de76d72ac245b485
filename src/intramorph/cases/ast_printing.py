"""Expression-tree case study: infix, prefix, and postfix printers.

The infix printer must parenthesize an addition that sits directly under a
multiplication; prefix and postfix need no parentheses at all, which is what
makes them trustworthy companions. The token-multiset relation compares the
three renderings after stripping the infix parentheses. Two bugs are derived
from the infix printer by one edit each; the third is written out.

The nodes are NamedTuples rather than frozen dataclasses: a campaign builds
a tree on every iteration and every shrink candidate, and hashes each
candidate, so construction and hashing dominate, and a tuple is about half
the cost of a frozen dataclass for both. They keep a dataclass's value
semantics and reprs. ``Operation``'s constructor checks the operator; the
generators and shrinker, whose nodes are valid by construction, build them
with ``tuple.__new__`` instead.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from . import derive


class Variable(NamedTuple):
    name: str


class Constant(NamedTuple):
    value: int


class _OperationFields(NamedTuple):
    operator: str
    left: "ExprNode"
    right: "ExprNode"


class Operation(_OperationFields):
    __slots__ = ()

    def __new__(cls, operator: str, left: "ExprNode", right: "ExprNode") -> "Operation":
        if operator not in ("+", "*"):
            raise ValueError(f"unsupported operator {operator!r}")
        return tuple.__new__(cls, (operator, left, right))

    @classmethod
    def _make(cls, fields) -> "Operation":
        # _replace builds through _make, which would otherwise skip the check
        return cls(*fields)


ExprNode = Union[Operation, Variable, Constant]


def as_string_infix(node: ExprNode) -> str:
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Constant):
        return str(node.value)
    left = as_string_infix(node.left)
    right = as_string_infix(node.right)
    if node.operator == "*":
        if isinstance(node.left, Operation) and node.left.operator == "+":
            left = "(" + left + ")"
        if isinstance(node.right, Operation) and node.right.operator == "+":
            right = "(" + right + ")"
    return left + " " + node.operator + " " + right


def as_string_prefix(node: ExprNode) -> str:
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Constant):
        return str(node.value)
    return node.operator + " " + as_string_prefix(node.left) + " " + as_string_prefix(node.right)


def as_string_postfix(node: ExprNode) -> str:
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Constant):
        return str(node.value)
    return as_string_postfix(node.left) + " " + as_string_postfix(node.right) + " " + node.operator


def token_texts_match(infix_text: str, prefix_text: str, postfix_text: str) -> bool:
    """Sorted-token equality of the three renderings, parentheses stripped first."""
    infix_tokens = sorted(infix_text.replace("(", "").replace(")", "").split(" "))
    prefix_tokens = sorted(prefix_text.split(" "))
    postfix_tokens = sorted(postfix_text.split(" "))
    return infix_tokens == prefix_tokens and infix_tokens == postfix_tokens


def render_tree(node: ExprNode) -> str:
    if isinstance(node, Variable):
        return f"Variable({node.name!r})"
    if isinstance(node, Constant):
        return f"Constant({node.value})"
    return f"Operation({node.operator!r}, {render_tree(node.left)}, {render_tree(node.right)})"


infix_paren_left_as_right = derive(
    as_string_infix, "infix_paren_left_as_right",
    """Seeded bug: when the right operand needs parentheses, the left operand's
    text is wrapped and assigned instead.""",
    ('"(" + right + ")"', '"(" + left + ")"'))


def infix_drop_right_operand(node: ExprNode) -> str:
    """Seeded bug: operations render the left operand and operator only."""
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Constant):
        return str(node.value)
    return infix_drop_right_operand(node.left) + " " + node.operator


infix_paren_missing = derive(
    as_string_infix, "infix_paren_missing",
    """Seeded bug: parentheses are never added.

    Known blind spot: the token relation strips parentheses before comparing,
    so it cannot distinguish this printer from the correct one.""",
    ('node.operator == "*"', "False"))
