"""Semantic-analysis unit tests."""

import pytest

from repro.lang import SemanticError, frontend
from repro.lang import ast_nodes as ast
from repro.lang.types import U16, U8


def check_ok(source):
    return frontend(source)


def check_fails(source):
    with pytest.raises(SemanticError):
        frontend(source)


class TestDeclarations:
    def test_global_symbols_collected(self):
        checked = check_ok("u8 a; u16 b;")
        assert [s.name for s in checked.globals] == ["a", "b"]

    def test_duplicate_global_rejected(self):
        check_fails("u8 a; u16 a;")

    def test_duplicate_function_rejected(self):
        check_fails("void f() {} void f() {}")

    def test_global_conflicting_with_builtin_rejected(self):
        check_fails("u8 led_set;")

    def test_local_scoping_shadow(self):
        checked = check_ok("u8 x; void f() { u8 x = 1; { u8 x = 2; } }")
        fn = checked.functions["f"]
        assert len(fn.locals) == 2
        assert fn.locals[0].uid != fn.locals[1].uid

    def test_redeclaration_in_same_scope_rejected(self):
        check_fails("void f() { u8 x; u8 x; }")

    def test_use_before_declaration_rejected(self):
        check_fails("void f() { x = 1; u8 x; }")

    def test_const_local_requires_init(self):
        check_fails("void f() { const u8 k; }")

    def test_assignment_to_const_rejected(self):
        check_fails("const u8 k = 1; void f() { k = 2; }")

    def test_array_param_rejected(self):
        # The grammar itself has no array-parameter syntax.
        from repro.lang import CompileError

        with pytest.raises(CompileError):
            frontend("void f(u8 a[4]) { }")


class TestGlobalInitialisers:
    def test_scalar_default_zero(self):
        checked = check_ok("u8 x;")
        assert checked.global_inits["x"] == 0

    def test_constant_folding_in_init(self):
        checked = check_ok("u16 x = 3 * 100 + 7;")
        assert checked.global_inits["x"] == 307

    def test_array_init_padded(self):
        checked = check_ok("u8 t[4] = {1, 2};")
        assert checked.global_inits["t"] == [1, 2, 0, 0]

    def test_without_syntax_keeps_globals_and_inits(self):
        checked = check_ok("u8 t[4] = {1, 2}; u16 x = 7; void main() { x = t[1]; }")
        bare = checked.without_syntax()
        assert bare.globals is checked.globals
        assert bare.global_inits is checked.global_inits
        assert bare.global_symbol("x").ctype == U16
        assert not bare.program.functions and not bare.program.globals
        assert not bare.functions
        assert checked.functions  # the original is untouched

    def test_too_many_array_inits_rejected(self):
        check_fails("u8 t[2] = {1, 2, 3};")

    def test_non_constant_init_rejected(self):
        check_fails("u8 a; u8 b = a;")

    def test_division_by_zero_in_init_rejected(self):
        check_fails("u8 x = 1 / 0;")


class TestTypes:
    def test_literal_width_inference(self):
        checked = check_ok("void f() { u16 x = 300; }")
        # 300 does not fit u8, so the literal must be u16.
        decl = checked.functions["f"].definition.body.statements[0]
        assert decl.init.ctype == U16

    def test_literal_out_of_range_rejected(self):
        check_fails("void f() { u16 x = 70000; }")

    def test_widening_cast_inserted(self):
        checked = check_ok("void f(u8 a) { u16 x = a; }")
        decl = checked.functions["f"].definition.body.statements[0]
        assert isinstance(decl.init, ast.CastExpr)

    def test_comparison_operands_unified(self):
        checked = check_ok("void f(u16 a) { if (a > 5) { } }")
        cond = checked.functions["f"].definition.body.statements[0].cond
        assert cond.left.ctype == U16
        assert cond.right.ctype == U16
        assert cond.ctype == U8  # comparisons produce u8 0/1

    def test_arithmetic_promotes_to_wider(self):
        checked = check_ok("void f(u8 a, u16 b) { u16 c = a + b; }")
        decl = checked.functions["f"].definition.body.statements[0]
        assert decl.init.ctype == U16

    def test_indexing_non_array_rejected(self):
        check_fails("void f(u8 a) { u8 x = a[0]; }")

    def test_whole_array_assignment_rejected(self):
        check_fails("u8 t[4]; u8 s[4]; void f() { t = s; }")

    def test_array_as_scalar_value_rejected(self):
        check_fails("u8 t[4]; void f() { u8 x = t + 1; }")


class TestCallsAndReturns:
    def test_unknown_function_rejected(self):
        check_fails("void f() { g(); }")

    def test_arity_mismatch_rejected(self):
        check_fails("void g(u8 a) {} void f() { g(1, 2); }")

    def test_builtin_arity_checked(self):
        check_fails("void f() { led_set(); }")

    def test_builtin_signature_types(self):
        checked = check_ok("void f() { u16 v = adc_read(); }")
        assert checked.functions["f"].locals[0].ctype == U16

    def test_void_return_with_value_rejected(self):
        check_fails("void f() { return 1; }")

    def test_nonvoid_return_without_value_rejected(self):
        check_fails("u8 f() { return; }")

    def test_return_coerced_to_signature(self):
        checked = check_ok("u16 f(u8 a) { return a; }")
        ret = checked.functions["f"].definition.body.statements[0]
        assert isinstance(ret.value, ast.CastExpr)

    def test_call_argument_coerced(self):
        checked = check_ok("void g(u16 v) {} void f(u8 a) { g(a); }")
        call = checked.functions["f"].definition.body.statements[0].expr
        assert isinstance(call.args[0], ast.CastExpr)


class TestControlFlowRules:
    def test_break_outside_loop_rejected(self):
        check_fails("void f() { break; }")

    def test_continue_outside_loop_rejected(self):
        check_fails("void f() { continue; }")

    def test_break_inside_for_ok(self):
        check_ok("void f() { for (;;) { break; } }")

    def test_nested_loop_break_ok(self):
        check_ok("void f() { while (1) { while (1) { break; } continue; } }")
