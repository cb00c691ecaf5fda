"""The level-recursive expression parser precedence climbing replaced.

``Parser`` is :class:`repro.lang.parser.Parser` with the replaced
methods restored: ``_parse_binary`` makes one recursive call per
precedence level and one ``any()`` scan of the level's operators per
loop test, ``_parse_unary`` and ``_parse_expr_or_assign`` test one
punctuator at a time, and every lookahead goes through ``_peek``.  It
parses the token stream of the shipped lexer.
"""

from __future__ import annotations

from repro.lang import ast_nodes as ast
from repro.lang import parser as _shipped
from repro.lang.lexer import Token, tokenize

_PRECEDENCE = _shipped._PRECEDENCE
_COMPOUND_OPS = _shipped._COMPOUND_OPS


class Parser(_shipped.Parser):
    def parse_expression(self) -> ast.Expr:
        return self._parse_binary(0)

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _parse_expr_or_assign(self) -> ast.Stmt:
        """Parse an expression statement, assignment, or ++/-- sugar."""
        tok = self._peek()
        # Prefix ++x / --x.
        if self._at_punct("++") or self._at_punct("--"):
            op = self._next().value
            target = self._parse_postfix_target()
            return self._incdec(tok, target, op)
        expr = self.parse_expression()
        if self._at_punct("++") or self._at_punct("--"):
            op = self._next().value
            return self._incdec(tok, expr, op)
        if self._at_punct("="):
            self._next()
            value = self.parse_expression()
            self._check_assignable(expr)
            return ast.AssignStmt(location=tok.location, target=expr, op="", value=value)
        for compound, base_op in _COMPOUND_OPS.items():
            if self._at_punct(compound):
                self._next()
                value = self.parse_expression()
                self._check_assignable(expr)
                return ast.AssignStmt(
                    location=tok.location, target=expr, op=base_op, value=value
                )
        return ast.ExprStmt(location=tok.location, expr=expr)

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(_PRECEDENCE):
            return self._parse_unary()
        left = self._parse_binary(level + 1)
        while any(self._at_punct(op) for op in _PRECEDENCE[level]):
            op_tok = self._next()
            right = self._parse_binary(level + 1)
            left = ast.BinaryExpr(
                location=op_tok.location, op=op_tok.value, left=left, right=right
            )
        return left

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if self._at_punct("-") or self._at_punct("~") or self._at_punct("!"):
            self._next()
            operand = self._parse_unary()
            return ast.UnaryExpr(location=tok.location, op=tok.value, operand=operand)
        if self._at_punct("+"):  # unary plus is a no-op
            self._next()
            return self._parse_unary()
        return self._parse_postfix()


def parse(source: str, filename: str = "<source>") -> ast.Program:
    return Parser(tokenize(source, filename)).parse_program()
