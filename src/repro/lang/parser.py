"""Recursive-descent parser for ucc-C.

Grammar (EBNF, ``//`` comments handled by the lexer)::

    program      = { global_decl | function_def } ;
    global_decl  = ["const"] type IDENT [ "[" INT "]" ] [ "=" init ] ";" ;
    function_def = type IDENT "(" [ params ] ")" block ;
    params       = type IDENT { "," type IDENT } ;
    block        = "{" { statement } "}" ;
    statement    = decl | if | while | for | return | break ";"
                 | continue ";" | block | expr_or_assign ";" ;
    init         = expr | "{" expr { "," expr } "}" ;

Expressions use standard C precedence, every binary level
left-associative; binary operators are parsed by precedence climbing
over ``_PRECEDENCE``.  ``++``/``--`` are statement-level sugar for
``x += 1`` / ``x -= 1`` (prefix or postfix, value unused).
"""

from __future__ import annotations

from . import ast_nodes as ast
from .errors import ParseError
from .lexer import Token, TokenKind, tokenize
from .types import Type, scalar

# Binary operator precedence, loosest binding first.
_PRECEDENCE = [
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

#: binary operator -> its level in _PRECEDENCE (higher binds tighter)
_BINARY_LEVEL = {op: level for level, ops in enumerate(_PRECEDENCE) for op in ops}

_UNARY_OPS = frozenset({"-", "~", "!", "+"})

_COMPOUND_OPS = {
    "+=": "+",
    "-=": "-",
    "*=": "*",
    "/=": "/",
    "%=": "%",
    "&=": "&",
    "|=": "|",
    "^=": "^",
    "<<=": "<<",
    ">>=": ">>",
}

_TYPE_KEYWORDS = ("u8", "u16", "void")


class Parser:
    """Parses a token stream into a :class:`~repro.lang.ast_nodes.Program`."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0
        #: The token at ``index``; the stream's last token (EOF) once
        #: the stream is exhausted.
        self.current = tokens[0]

    # -- token stream helpers ------------------------------------------

    def _next(self) -> Token:
        tok = self.current
        if tok.kind is not TokenKind.EOF:
            self.index += 1
            self.current = self.tokens[min(self.index, len(self.tokens) - 1)]
        return tok

    def _at(self, kind: TokenKind, value: object = None) -> bool:
        tok = self.current
        if tok.kind is not kind:
            return False
        return value is None or tok.value == value

    def _at_punct(self, value: str) -> bool:
        tok = self.current
        return tok.kind is TokenKind.PUNCT and tok.value == value

    def _at_keyword(self, value: str) -> bool:
        tok = self.current
        return tok.kind is TokenKind.KEYWORD and tok.value == value

    def _expect(self, kind: TokenKind, value: object = None) -> Token:
        tok = self.current
        if not self._at(kind, value):
            want = value if value is not None else kind.value
            raise ParseError(
                f"expected {want!r}, found {tok.text!r}", tok.location
            )
        return self._next()

    def _expect_punct(self, value: str) -> Token:
        return self._expect(TokenKind.PUNCT, value)

    # -- top level -------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while not self._at(TokenKind.EOF):
            item = self._parse_top_level()
            program.decl_order.append(item)
            if isinstance(item, ast.FunctionDef):
                program.functions.append(item)
            else:
                program.globals.append(item)
        return program

    def _parse_top_level(self):
        is_const = False
        if self._at_keyword("const"):
            self._next()
            is_const = True
        type_tok = self.current
        base_type = self._parse_type_name()
        name_tok = self._expect(TokenKind.IDENT)
        if self._at_punct("(") and not is_const:
            return self._parse_function_rest(type_tok, base_type, name_tok)
        return self._parse_global_rest(type_tok, base_type, name_tok, is_const)

    def _parse_type_name(self) -> Type:
        tok = self.current
        if tok.kind is TokenKind.KEYWORD and tok.value in _TYPE_KEYWORDS:
            self._next()
            return scalar(tok.value)
        raise ParseError(f"expected a type, found {tok.text!r}", tok.location)

    def _parse_array_suffix(self, base_type: Type) -> Type:
        if not self._at_punct("["):
            return base_type
        self._next()
        size_tok = self._expect(TokenKind.INT)
        self._expect_punct("]")
        if size_tok.value <= 0:
            raise ParseError("array length must be positive", size_tok.location)
        return Type(base_type.name, size_tok.value)

    def _parse_global_rest(self, type_tok, base_type, name_tok, is_const):
        var_type = self._parse_array_suffix(base_type)
        if var_type.is_void:
            raise ParseError("variables cannot have type void", type_tok.location)
        init = None
        init_list = None
        if self._at_punct("="):
            self._next()
            if self._at_punct("{"):
                init_list = self._parse_init_list()
            else:
                init = self.parse_expression()
        self._expect_punct(";")
        return ast.GlobalDecl(
            location=name_tok.location,
            var_type=var_type,
            name=name_tok.value,
            init=init,
            init_list=init_list,
            is_const=is_const,
        )

    def _parse_init_list(self) -> list[ast.Expr]:
        self._expect_punct("{")
        items = [self.parse_expression()]
        while self._at_punct(","):
            self._next()
            if self._at_punct("}"):  # trailing comma
                break
            items.append(self.parse_expression())
        self._expect_punct("}")
        return items

    def _parse_function_rest(self, type_tok, return_type, name_tok):
        if return_type.is_array:
            raise ParseError("functions cannot return arrays", type_tok.location)
        self._expect_punct("(")
        params: list[ast.Param] = []
        if not self._at_punct(")"):
            while True:
                ptype_tok = self.current
                ptype = self._parse_type_name()
                if ptype.is_void:
                    raise ParseError(
                        "parameters cannot have type void", ptype_tok.location
                    )
                pname = self._expect(TokenKind.IDENT)
                params.append(
                    ast.Param(
                        location=pname.location,
                        param_type=ptype,
                        name=pname.value,
                    )
                )
                if not self._at_punct(","):
                    break
                self._next()
        self._expect_punct(")")
        body = self.parse_block()
        return ast.FunctionDef(
            location=name_tok.location,
            return_type=return_type,
            name=name_tok.value,
            params=params,
            body=body,
        )

    # -- statements -------------------------------------------------------

    def parse_block(self) -> ast.Block:
        open_tok = self._expect_punct("{")
        statements = []
        while not self._at_punct("}"):
            if self._at(TokenKind.EOF):
                raise ParseError("unterminated block", open_tok.location)
            statements.append(self.parse_statement())
        self._expect_punct("}")
        return ast.Block(location=open_tok.location, statements=statements)

    def parse_statement(self) -> ast.Stmt:
        tok = self.current
        if tok.kind is TokenKind.KEYWORD:
            if tok.value in _TYPE_KEYWORDS or tok.value == "const":
                return self._parse_decl_stmt()
            if tok.value == "if":
                return self._parse_if()
            if tok.value == "while":
                return self._parse_while()
            if tok.value == "for":
                return self._parse_for()
            if tok.value == "return":
                return self._parse_return()
            if tok.value == "break":
                self._next()
                self._expect_punct(";")
                return ast.BreakStmt(location=tok.location)
            if tok.value == "continue":
                self._next()
                self._expect_punct(";")
                return ast.ContinueStmt(location=tok.location)
        if self._at_punct("{"):
            return self.parse_block()
        stmt = self._parse_expr_or_assign()
        self._expect_punct(";")
        return stmt

    def _parse_decl_stmt(self) -> ast.DeclStmt:
        is_const = False
        if self._at_keyword("const"):
            self._next()
            is_const = True
        type_tok = self.current
        base_type = self._parse_type_name()
        name_tok = self._expect(TokenKind.IDENT)
        var_type = self._parse_array_suffix(base_type)
        if var_type.is_void:
            raise ParseError("variables cannot have type void", type_tok.location)
        init = None
        init_list = None
        if self._at_punct("="):
            self._next()
            if self._at_punct("{"):
                init_list = self._parse_init_list()
            else:
                init = self.parse_expression()
        self._expect_punct(";")
        return ast.DeclStmt(
            location=name_tok.location,
            var_type=var_type,
            name=name_tok.value,
            init=init,
            init_list=init_list,
            is_const=is_const,
        )

    def _parse_if(self) -> ast.IfStmt:
        tok = self._next()
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        then_body = self._parse_body_as_block()
        else_body = None
        if self._at_keyword("else"):
            self._next()
            if self._at_keyword("if"):
                nested = self._parse_if()
                else_body = ast.Block(location=nested.location, statements=[nested])
            else:
                else_body = self._parse_body_as_block()
        return ast.IfStmt(
            location=tok.location, cond=cond, then_body=then_body, else_body=else_body
        )

    def _parse_body_as_block(self) -> ast.Block:
        if self._at_punct("{"):
            return self.parse_block()
        stmt = self.parse_statement()
        return ast.Block(location=stmt.location, statements=[stmt])

    def _parse_while(self) -> ast.WhileStmt:
        tok = self._next()
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        body = self._parse_body_as_block()
        return ast.WhileStmt(location=tok.location, cond=cond, body=body)

    def _parse_for(self) -> ast.ForStmt:
        tok = self._next()
        self._expect_punct("(")
        init = None
        if not self._at_punct(";"):
            if self.current.kind is TokenKind.KEYWORD and self.current.value in (
                _TYPE_KEYWORDS + ("const",)
            ):
                init = self._parse_decl_stmt()  # consumes the ';'
            else:
                init = self._parse_expr_or_assign()
                self._expect_punct(";")
        else:
            self._next()
        cond = None
        if not self._at_punct(";"):
            cond = self.parse_expression()
        self._expect_punct(";")
        step = None
        if not self._at_punct(")"):
            step = self._parse_expr_or_assign()
        self._expect_punct(")")
        body = self._parse_body_as_block()
        return ast.ForStmt(
            location=tok.location, init=init, cond=cond, step=step, body=body
        )

    def _parse_return(self) -> ast.ReturnStmt:
        tok = self._next()
        value = None
        if not self._at_punct(";"):
            value = self.parse_expression()
        self._expect_punct(";")
        return ast.ReturnStmt(location=tok.location, value=value)

    def _parse_expr_or_assign(self) -> ast.Stmt:
        """Parse an expression statement, assignment, or ++/-- sugar."""
        tok = self.current
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
        op_tok = self.current
        if op_tok.kind is TokenKind.PUNCT and op_tok.value in _COMPOUND_OPS:
            self._next()
            value = self.parse_expression()
            self._check_assignable(expr)
            return ast.AssignStmt(
                location=tok.location,
                target=expr,
                op=_COMPOUND_OPS[op_tok.value],
                value=value,
            )
        return ast.ExprStmt(location=tok.location, expr=expr)

    def _parse_postfix_target(self) -> ast.Expr:
        expr = self._parse_primary()
        while self._at_punct("["):
            self._next()
            index = self.parse_expression()
            self._expect_punct("]")
            expr = ast.IndexExpr(location=expr.location, base=expr, index=index)
        return expr

    def _incdec(self, tok: Token, target: ast.Expr, op: str) -> ast.AssignStmt:
        self._check_assignable(target)
        one = ast.IntLiteral(location=tok.location, value=1)
        base_op = "+" if op == "++" else "-"
        return ast.AssignStmt(location=tok.location, target=target, op=base_op, value=one)

    @staticmethod
    def _check_assignable(expr: ast.Expr) -> None:
        if not isinstance(expr, (ast.NameRef, ast.IndexExpr)):
            raise ParseError("invalid assignment target", expr.location)

    # -- expressions --------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_binary(0)

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: parse operators binding at ``min_level``
        or tighter.  Each right operand only takes operators one level
        tighter than its own, which makes every level left-associative."""
        left = self._parse_unary()
        while True:
            op_tok = self.current
            if op_tok.kind is not TokenKind.PUNCT:
                return left
            level = _BINARY_LEVEL.get(op_tok.value)
            if level is None or level < min_level:
                return left
            self._next()
            right = self._parse_binary(level + 1)
            left = ast.BinaryExpr(
                location=op_tok.location, op=op_tok.value, left=left, right=right
            )

    def _parse_unary(self) -> ast.Expr:
        tok = self.current
        if tok.kind is TokenKind.PUNCT and tok.value in _UNARY_OPS:
            self._next()
            operand = self._parse_unary()
            if tok.value == "+":  # unary plus is a no-op
                return operand
            return ast.UnaryExpr(location=tok.location, op=tok.value, operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while self._at_punct("["):
            self._next()
            index = self.parse_expression()
            self._expect_punct("]")
            expr = ast.IndexExpr(location=expr.location, base=expr, index=index)
        return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self.current
        if tok.kind is TokenKind.INT:
            self._next()
            return ast.IntLiteral(location=tok.location, value=tok.value)
        if tok.kind is TokenKind.IDENT:
            self._next()
            if self._at_punct("("):
                self._next()
                args = []
                if not self._at_punct(")"):
                    args.append(self.parse_expression())
                    while self._at_punct(","):
                        self._next()
                        args.append(self.parse_expression())
                self._expect_punct(")")
                return ast.CallExpr(location=tok.location, callee=tok.value, args=args)
            return ast.NameRef(location=tok.location, name=tok.value)
        if self._at_punct("("):
            self._next()
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.location)


def parse(source: str, filename: str = "<source>") -> ast.Program:
    """Parse ucc-C source text into an AST program."""
    return Parser(tokenize(source, filename)).parse_program()
