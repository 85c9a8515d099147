"""Structural expression keys (``Expr.key``) and interning.

The optimizer's CSE pass relies on two properties: equal keys exactly
when the expressions compute the same function at the same widths, and
cheap hashing on shared DAGs (keys cache their hash; a naive nested
tuple would re-expand the DAG exponentially).
"""

from repro.kiwi.builder import MemReadRef, VarRef
from repro.rtl.expr import (
    BinOp, Concat, Const, Mux, Slice, UnOp,
)
from repro.rtl.signal import Signal


def b(width=8, value=3):
    return Const(value, width)


class TestKeyEquality:
    def test_const_same_value_same_width(self):
        assert Const(3, 8).key() == Const(3, 8).key()

    def test_const_width_sensitive(self):
        assert Const(3, 8).key() != Const(3, 16).key()

    def test_const_value_sensitive(self):
        assert Const(3, 8).key() != Const(4, 8).key()

    def test_binop_structural(self):
        x, y = Const(1, 8), Const(2, 8)
        assert BinOp("+", x, y).key() == BinOp("+", x, y).key()
        assert BinOp("+", x, y).key() != BinOp("-", x, y).key()
        assert BinOp("+", x, y).key() != BinOp("+", y, x).key()

    def test_binop_width_sensitive(self):
        assert BinOp("+", Const(1, 8), Const(2, 8)).key() != \
            BinOp("+", Const(1, 16), Const(2, 16)).key()

    def test_unop_op_and_width_sensitive(self):
        x = Const(5, 8)
        assert UnOp("~", x).key() == UnOp("~", x).key()
        assert UnOp("~", x).key() != UnOp("|r", x).key()
        # ~ keeps the operand width, reductions are 1-bit.
        assert UnOp("~", x).key() != UnOp("!", x).key()

    def test_mux_structural(self):
        s, a, c = Const(1, 1), Const(1, 8), Const(2, 8)
        assert Mux(s, a, c).key() == Mux(s, a, c).key()
        assert Mux(s, a, c).key() != Mux(s, c, a).key()

    def test_slice_bounds_sensitive(self):
        x = Const(0xAB, 8)
        assert Slice(x, 3, 0).key() == Slice(x, 3, 0).key()
        assert Slice(x, 3, 0).key() != Slice(x, 4, 1).key()
        assert Slice(x, 3, 0).key() != Slice(x, 3, 1).key()

    def test_concat_order_sensitive(self):
        x, y = Const(1, 4), Const(2, 4)
        assert Concat([x, y]).key() == Concat([x, y]).key()
        assert Concat([x, y]).key() != Concat([y, x]).key()

    def test_signal_identity_not_name(self):
        a = Signal("x", 8)
        b_sig = Signal("x", 8)
        assert a.key() == a.key()
        assert a.key() != b_sig.key()

    def test_varref_by_name_and_width(self):
        assert VarRef("v", 8).key() == VarRef("v", 8).key()
        assert VarRef("v", 8).key() != VarRef("w", 8).key()
        assert VarRef("v", 8).key() != VarRef("v", 16).key()

    def test_memreadref_by_memory_and_addr(self):
        addr = Const(3, 4)
        assert MemReadRef("m", addr, 8).key() == \
            MemReadRef("m", addr, 8).key()
        assert MemReadRef("m", addr, 8).key() != \
            MemReadRef("n", addr, 8).key()
        assert MemReadRef("m", Const(3, 4), 8).key() != \
            MemReadRef("m", Const(4, 4), 8).key()

    def test_compare_result_width_in_key(self):
        x, y = Const(1, 8), Const(2, 8)
        eq1 = BinOp("==", x, y, result_width=1)
        assert eq1.key() == BinOp("==", x, y).key()    # both 1-bit


class TestInterning:
    def test_shared_dag_keys_are_cheap(self):
        # A deep DAG with exponential tree expansion: key() must finish
        # (cached hashes; the naive nested-tuple encoding would hang).
        node = VarRef("v", 8)
        for _ in range(64):
            node = BinOp("+", node, node)
        key = node.key()
        assert key == node.key()
