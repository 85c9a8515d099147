"""Expression rewriting for the optimizing middle-end.

Two pieces live here:

* :func:`transform` — a generic bottom-up rewriter over the builder-level
  expression IR (``Const``/``BinOp``/``UnOp``/``Mux``/``Slice``/``Concat``
  plus the :class:`~repro.kiwi.builder.VarRef` and
  :class:`~repro.kiwi.builder.MemReadRef` placeholders).  It is memoised
  by node identity so shared sub-DAGs stay shared and are rewritten once.
* :func:`fold_node` — the local simplification rules: constant folding
  (mirroring the cycle simulator's arithmetic exactly, including width
  masking), algebraic identities, and strength reduction (multiply /
  divide / modulo by powers of two become shifts and masks).

Every rule preserves the width of the node it replaces; that invariant is
what lets folded expressions drop into an existing netlist unchanged.
"""

from repro.errors import CompileError
from repro.rtl.expr import (
    BinOp, Concat, Const, Mux, Slice, UnOp, _mask, clone_with_children,
    eval_binop, eval_unop,
)

_FULL_FOLD_OPS = {"+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%",
                  "==", "!=", "<", "<=", ">", ">="}


def transform(expr, fn, memo=None):
    """Rewrite *expr* bottom-up: children first, then ``fn`` on the
    rebuilt node.  ``fn`` returns a replacement (or the node itself);
    replacements must keep the node's width.  *memo* (id → result) makes
    shared DAGs rewrite once — pass one memo per rewriting context, never
    reuse it across different substitution environments.
    """
    if memo is None:
        memo = {}
    cached = memo.get(id(expr))
    if cached is not None:
        return cached
    children = expr.children()
    new_children = tuple(transform(c, fn, memo) for c in children)
    node = expr
    if any(a is not b for a, b in zip(children, new_children)):
        node = clone_with_children(expr, new_children)
    result = fn(node)
    if result.width != expr.width:
        raise CompileError(
            "rewrite changed width of %r: %d -> %d"
            % (expr, expr.width, result.width))
    memo[id(expr)] = result
    return result


# Constant evaluation is repro.rtl.expr.eval_binop/eval_unop — the
# same functions the cycle simulator executes, so a folded constant is
# the simulated value by construction.

def _is_const(expr, value=None):
    if not isinstance(expr, Const):
        return False
    return value is None or expr.value == value


def _same(a, b):
    """Structural equality (same function of the same leaves)."""
    return a.key() == b.key()


def _power_of_two(value):
    """log2(value) if value is a power of two >= 2, else None."""
    if value >= 2 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


def _shift_amount(k):
    return Const(k, max(1, k.bit_length()))


def fold_node(node):
    """One local simplification step; children are already folded."""
    if isinstance(node, BinOp):
        return _fold_binop(node)
    if isinstance(node, UnOp):
        return _fold_unop(node)
    if isinstance(node, Mux):
        return _fold_mux(node)
    if isinstance(node, Slice):
        return _fold_slice(node)
    if isinstance(node, Concat):
        return _fold_concat(node)
    return node


def _fold_binop(node):
    op, lhs, rhs, width = node.op, node.lhs, node.rhs, node.width
    if _is_const(lhs) and _is_const(rhs) and op in _FULL_FOLD_OPS:
        return Const(eval_binop(op, lhs.value, rhs.value, width), width)

    if op == "+":
        if _is_const(rhs, 0):
            return lhs
        if _is_const(lhs, 0):
            return rhs
    elif op == "-":
        if _is_const(rhs, 0):
            return lhs
        if _same(lhs, rhs):
            return Const(0, width)
    elif op == "*":
        for a, b in ((lhs, rhs), (rhs, lhs)):
            if _is_const(a):
                if a.value == 0:
                    return Const(0, width)
                if a.value == 1:
                    return b
                shift = _power_of_two(a.value)
                if shift is not None:
                    # Strength reduction: constant shift is free fabric.
                    return BinOp("<<", b, _shift_amount(shift))
    elif op == "&":
        if _is_const(rhs, 0) or _is_const(lhs, 0):
            return Const(0, width)
        if _is_const(rhs, _mask(width)):
            return lhs
        if _is_const(lhs, _mask(width)):
            return rhs
        if _same(lhs, rhs):
            return lhs
    elif op == "|":
        if _is_const(rhs, 0):
            return lhs
        if _is_const(lhs, 0):
            return rhs
        if _is_const(rhs, _mask(width)) or _is_const(lhs, _mask(width)):
            return Const(_mask(width), width)
        if _same(lhs, rhs):
            return lhs
    elif op == "^":
        if _is_const(rhs, 0):
            return lhs
        if _is_const(lhs, 0):
            return rhs
        if _same(lhs, rhs):
            return Const(0, width)
    elif op in ("<<", ">>"):
        if _is_const(rhs, 0):
            return lhs
        if _is_const(lhs, 0):
            return Const(0, width)
        if op == ">>" and _is_const(rhs) and rhs.value >= lhs.width:
            return Const(0, width)
    elif op == "/":
        if _is_const(rhs):
            if rhs.value == 0:
                return Const(0, width)          # simulator semantics
            if rhs.value == 1:
                return lhs
            shift = _power_of_two(rhs.value)
            if shift is not None:
                return BinOp(">>", lhs, _shift_amount(shift))
    elif op == "%":
        if _is_const(rhs):
            if rhs.value == 0:
                return Const(0, width)          # simulator semantics
            if rhs.value == 1:
                return Const(0, width)
            shift = _power_of_two(rhs.value)
            if shift is not None:
                return BinOp("&", lhs, Const(rhs.value - 1, lhs.width))
    elif op in ("==", "<=", ">="):
        if _same(lhs, rhs):
            return Const(1, width)
    elif op in ("!=", "<", ">"):
        if _same(lhs, rhs):
            return Const(0, width)
    return node


def _fold_unop(node):
    op, operand = node.op, node.operand
    if _is_const(operand):
        return Const(eval_unop(op, operand.value, operand.width,
                               node.width), node.width)
    if op == "~" and isinstance(operand, UnOp) and operand.op == "~":
        return operand.operand
    if op == "!" and isinstance(operand, UnOp) and operand.op == "!" \
            and operand.operand.width == 1:
        return operand.operand
    if op in ("|r", "&r", "^r") and operand.width == 1:
        return operand
    return node


def _fold_mux(node):
    sel, if_true, if_false = node.sel, node.if_true, node.if_false
    if _is_const(sel):
        return if_true if sel.value else if_false
    if _same(if_true, if_false):
        return if_true
    if node.width == 1 and sel.width == 1:
        if _is_const(if_true, 1) and _is_const(if_false, 0):
            return sel
        if _is_const(if_true, 0) and _is_const(if_false, 1):
            return UnOp("!", sel)
    # Mux(c, Mux(c, a, b), d) -> Mux(c, a, d); same on the false arm.
    if isinstance(if_true, Mux) and _same(if_true.sel, sel):
        return Mux(sel, if_true.if_true, if_false)
    if isinstance(if_false, Mux) and _same(if_false.sel, sel):
        return Mux(sel, if_true, if_false.if_false)
    return node


def _fold_slice(node):
    operand = node.operand
    if _is_const(operand):
        return Const((operand.value >> node.lsb) & _mask(node.width),
                     node.width)
    if node.lsb == 0 and node.msb == operand.width - 1:
        return operand
    if isinstance(operand, Slice):
        return Slice(operand.operand, operand.lsb + node.msb,
                     operand.lsb + node.lsb)
    return node


def _fold_concat(node):
    if len(node.parts) == 1:
        return node.parts[0]
    if all(_is_const(p) for p in node.parts):
        value = 0
        for part in node.parts:
            value = (value << part.width) | part.value
        return Const(value, node.width)
    return node


def fold_expr(expr, memo=None):
    """Fully fold one expression tree (used by passes and by fusion)."""
    return transform(expr, fold_node, memo)
