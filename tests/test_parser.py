"""Parser unit tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import ParseError, TokenKind, parse, tokenize
from repro.lang import ast_nodes as ast
from repro.lang.parser import Parser


def parse_fn(body: str) -> ast.FunctionDef:
    return parse(f"void f() {{ {body} }}").functions[0]


def first_stmt(body: str) -> ast.Stmt:
    return parse_fn(body).body.statements[0]


class TestTopLevel:
    def test_global_scalar(self):
        prog = parse("u8 x;")
        assert prog.globals[0].name == "x"
        assert str(prog.globals[0].var_type) == "u8"

    def test_global_with_init(self):
        prog = parse("u16 x = 400;")
        assert isinstance(prog.globals[0].init, ast.IntLiteral)

    def test_global_array(self):
        prog = parse("u8 buf[16];")
        assert prog.globals[0].var_type.array_length == 16

    def test_global_array_init_list(self):
        prog = parse("u8 t[3] = {1, 2, 3};")
        assert len(prog.globals[0].init_list) == 3

    def test_const_global(self):
        prog = parse("const u8 k = 5;")
        assert prog.globals[0].is_const

    def test_function_no_params(self):
        prog = parse("void f() { }")
        assert prog.functions[0].name == "f"
        assert prog.functions[0].params == []

    def test_function_params(self):
        prog = parse("u16 add(u16 a, u8 b) { return a + b; }")
        fn = prog.functions[0]
        assert [p.name for p in fn.params] == ["a", "b"]
        assert str(fn.params[1].param_type) == "u8"

    def test_decl_order_preserved(self):
        prog = parse("u8 a; void f() {} u8 b;")
        kinds = [type(item).__name__ for item in prog.decl_order]
        assert kinds == ["GlobalDecl", "FunctionDef", "GlobalDecl"]

    def test_void_variable_rejected(self):
        with pytest.raises(ParseError):
            parse("void x;")

    def test_array_return_rejected(self):
        with pytest.raises(ParseError):
            parse("u8 f[3]() { }")

    def test_zero_length_array_rejected(self):
        with pytest.raises(ParseError):
            parse("u8 x[0];")


class TestStatements:
    def test_local_decl(self):
        stmt = first_stmt("u8 x = 1;")
        assert isinstance(stmt, ast.DeclStmt)

    def test_plain_assignment(self):
        second = parse_fn("u8 x; x = 2;").body.statements[1]
        assert isinstance(second, ast.AssignStmt)
        assert second.op == ""

    def test_compound_assignment(self):
        stmt = parse_fn("u8 x; x += 2;").body.statements[1]
        assert stmt.op == "+"

    def test_increment_sugar(self):
        stmt = parse_fn("u8 x; x++;").body.statements[1]
        assert isinstance(stmt, ast.AssignStmt)
        assert stmt.op == "+"
        assert stmt.value.value == 1

    def test_prefix_decrement(self):
        stmt = parse_fn("u8 x; --x;").body.statements[1]
        assert stmt.op == "-"

    def test_if_else(self):
        stmt = first_stmt("if (1) { } else { }")
        assert isinstance(stmt, ast.IfStmt)
        assert stmt.else_body is not None

    def test_if_without_braces(self):
        stmt = first_stmt("if (1) return;")
        assert isinstance(stmt.then_body.statements[0], ast.ReturnStmt)

    def test_else_if_chain(self):
        stmt = first_stmt("if (1) { } else if (2) { } else { }")
        nested = stmt.else_body.statements[0]
        assert isinstance(nested, ast.IfStmt)
        assert nested.else_body is not None

    def test_while(self):
        stmt = first_stmt("while (1) { break; }")
        assert isinstance(stmt, ast.WhileStmt)

    def test_for_full(self):
        stmt = first_stmt("for (u8 i = 0; i < 4; i++) { }")
        assert isinstance(stmt, ast.ForStmt)
        assert stmt.init is not None and stmt.cond is not None and stmt.step is not None

    def test_for_empty_clauses(self):
        stmt = first_stmt("for (;;) { break; }")
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_break_continue(self):
        fn = parse_fn("while (1) { break; continue; }")
        body = fn.body.statements[0].body.statements
        assert isinstance(body[0], ast.BreakStmt)
        assert isinstance(body[1], ast.ContinueStmt)

    def test_return_value(self):
        stmt = first_stmt("return 3;")
        assert stmt.value.value == 3

    def test_nested_block(self):
        stmt = first_stmt("{ u8 x; }")
        assert isinstance(stmt, ast.Block)

    def test_expression_statement_call(self):
        stmt = first_stmt("halt();")
        assert isinstance(stmt, ast.ExprStmt)
        assert isinstance(stmt.expr, ast.CallExpr)


class TestExpressions:
    def expr(self, text):
        return first_stmt(f"u8 x = {text};").init

    def test_precedence_mul_over_add(self):
        expr = self.expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_shift_vs_compare(self):
        expr = self.expr("1 << 2 < 3")
        assert expr.op == "<"
        assert expr.left.op == "<<"

    def test_logical_or_loosest(self):
        expr = self.expr("1 && 2 || 3")
        assert expr.op == "||"

    def test_parentheses_override(self):
        expr = self.expr("(1 + 2) * 3")
        assert expr.op == "*"

    def test_unary_chain(self):
        expr = self.expr("-~!0")
        assert expr.op == "-"
        assert expr.operand.op == "~"

    def test_unary_plus_noop(self):
        expr = self.expr("+5")
        assert isinstance(expr, ast.IntLiteral)

    def test_left_associativity(self):
        expr = self.expr("10 - 4 - 3")
        assert expr.op == "-"
        assert expr.left.op == "-"

    def test_index_expression(self):
        second = parse_fn("u8 t[4]; t[2] = 1;").body.statements[1]
        assert isinstance(second.target, ast.IndexExpr)

    def test_call_with_args(self):
        expr = self.expr("f(1, 2)")
        assert len(expr.args) == 2

    def test_assignment_to_literal_rejected(self):
        with pytest.raises(ParseError):
            parse_fn("3 = x;")


class TestParseErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("u8 x")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_fn("u8 x = (1 + 2;")

    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse("void f() { u8 x;")

    def test_garbage_at_top_level(self):
        with pytest.raises(ParseError):
            parse("42;")

    def test_error_has_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse("void f() {\n  u8 = 3;\n}")
        assert excinfo.value.location.line == 2


# ---------------------------------------------------------------------------
# Precedence and associativity, checked against C's table
# ---------------------------------------------------------------------------

#: C's binary levels, loosest first; every level is left-associative.
C_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]
C_LEVEL = {op: level for level, ops in enumerate(C_LEVELS) for op in ops}

_leaves = st.one_of(
    st.integers(0, 300).map(lambda v: ("int", v)),
    st.sampled_from(["a", "b", "cnt", "x1"]).map(lambda n: ("name", n)),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.just("bin"), st.sampled_from(sorted(C_LEVEL)), children, children),
        st.tuples(st.just("un"), st.sampled_from(["-", "~", "!", "+"]), children),
        st.tuples(st.just("idx"), st.sampled_from(["buf", "t"]), children),
    )


expression_trees = st.recursive(_leaves, _extend, max_leaves=14)


def _render_full(tree) -> str:
    """Every operator application in its own parentheses."""
    kind = tree[0]
    if kind == "int":
        return str(tree[1])
    if kind == "name":
        return tree[1]
    if kind == "idx":
        return f"{tree[1]}[{_render_full(tree[2])}]"
    if kind == "un":
        return f"({tree[1]} {_render_full(tree[2])})"
    return f"({_render_full(tree[2])} {tree[1]} {_render_full(tree[3])})"


def _render_minimal(tree) -> str:
    """Parentheses only where C's precedence or left-associativity
    would otherwise regroup the tree."""
    kind = tree[0]
    if kind == "int":
        return str(tree[1])
    if kind == "name":
        return tree[1]
    if kind == "idx":
        return f"{tree[1]}[{_render_minimal(tree[2])}]"
    if kind == "un":
        operand = _render_minimal(tree[2])
        if tree[2][0] == "bin":
            operand = f"({operand})"
        return f"{tree[1]} {operand}"
    level = C_LEVEL[tree[1]]
    left, right = _render_minimal(tree[2]), _render_minimal(tree[3])
    if tree[2][0] == "bin" and C_LEVEL[tree[2][1]] < level:
        left = f"({left})"
    if tree[3][0] == "bin" and C_LEVEL[tree[3][1]] <= level:
        right = f"({right})"
    return f"{left} {tree[1]} {right}"


def _expected_shape(tree):
    """The AST the tree denotes, without locations; unary ``+`` is a
    no-op the parser drops."""
    kind = tree[0]
    if kind in ("int", "name"):
        return tree
    if kind == "idx":
        return ("idx", ("name", tree[1]), _expected_shape(tree[2]))
    if kind == "un":
        operand = _expected_shape(tree[2])
        return operand if tree[1] == "+" else ("un", tree[1], operand)
    return ("bin", tree[1], _expected_shape(tree[2]), _expected_shape(tree[3]))


def _shape(expr):
    if isinstance(expr, ast.IntLiteral):
        return ("int", expr.value)
    if isinstance(expr, ast.NameRef):
        return ("name", expr.name)
    if isinstance(expr, ast.IndexExpr):
        return ("idx", _shape(expr.base), _shape(expr.index))
    if isinstance(expr, ast.UnaryExpr):
        return ("un", expr.op, _shape(expr.operand))
    assert isinstance(expr, ast.BinaryExpr)
    return ("bin", expr.op, _shape(expr.left), _shape(expr.right))


def _parse_expression(text: str):
    parser = Parser(tokenize(text))
    expr = parser.parse_expression()
    assert parser.current.kind is TokenKind.EOF, text
    return expr


class TestPrecedenceProperty:
    @settings(max_examples=300, deadline=None)
    @given(expression_trees)
    def test_minimal_and_full_parenthesisation_agree(self, tree):
        full = _shape(_parse_expression(_render_full(tree)))
        minimal = _shape(_parse_expression(_render_minimal(tree)))
        assert full == minimal == _expected_shape(tree)

    def test_table_matches_the_parser(self):
        from repro.lang.parser import _PRECEDENCE

        assert _PRECEDENCE == C_LEVELS
