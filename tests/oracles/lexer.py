"""The character-at-a-time lexer the linear scanner replaced.

Every character goes through ``_peek``/``_advance``, which keep the
line and column up to date one step at a time, and ``_scan_punct``
copies the rest of the source on every punctuator.
"""

from __future__ import annotations

from repro.lang.errors import LexError, SourceLocation
from repro.lang.lexer import _ESCAPES, KEYWORDS, PUNCTUATORS, Token, TokenKind


class Lexer:
    """Converts ucc-C source text into a token stream."""

    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- low-level cursor helpers -------------------------------------

    def _loc(self) -> SourceLocation:
        return SourceLocation(self.line, self.column, self.filename)

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        if idx < len(self.source):
            return self.source[idx]
        return ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.source):
                return
            if self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _skip_trivia(self) -> None:
        """Skip whitespace and // and /* */ comments."""
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._loc()
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexError("unterminated block comment", start)
            else:
                return

    # -- token scanners ------------------------------------------------

    def _scan_number(self) -> Token:
        loc = self._loc()
        start = self.pos
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            if not self._peek().strip() or not _is_hex(self._peek()):
                raise LexError("malformed hex literal", loc)
            while _is_hex(self._peek()):
                self._advance()
            text = self.source[start : self.pos]
            return Token(TokenKind.INT, int(text, 16), loc)
        while self._peek().isdigit():
            self._advance()
        if self._peek().isalpha() or self._peek() == "_":
            raise LexError(
                f"invalid character {self._peek()!r} in number", self._loc()
            )
        text = self.source[start : self.pos]
        return Token(TokenKind.INT, int(text, 10), loc)

    def _scan_char(self) -> Token:
        loc = self._loc()
        self._advance()  # opening quote
        ch = self._peek()
        if ch == "":
            raise LexError("unterminated character literal", loc)
        if ch == "\\":
            self._advance()
            esc = self._peek()
            if esc not in _ESCAPES:
                raise LexError(f"unknown escape '\\{esc}'", loc)
            value = _ESCAPES[esc]
            self._advance()
        else:
            value = ord(ch)
            self._advance()
        if self._peek() != "'":
            raise LexError("unterminated character literal", loc)
        self._advance()
        return Token(TokenKind.INT, value, loc)

    def _scan_word(self) -> Token:
        loc = self._loc()
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, loc)

    def _scan_punct(self) -> Token:
        loc = self._loc()
        rest = self.source[self.pos :]
        for punct in PUNCTUATORS:
            if rest.startswith(punct):
                self._advance(len(punct))
                return Token(TokenKind.PUNCT, punct, loc)
        raise LexError(f"unexpected character {self._peek()!r}", loc)

    # -- public API ------------------------------------------------------

    def next_token(self) -> Token:
        """Return the next token, or an EOF token at end of input."""
        self._skip_trivia()
        if self.pos >= len(self.source):
            return Token(TokenKind.EOF, "", self._loc())
        ch = self._peek()
        if ch.isdigit():
            return self._scan_number()
        if ch == "'":
            return self._scan_char()
        if ch.isalpha() or ch == "_":
            return self._scan_word()
        return self._scan_punct()

    def tokenize(self) -> list[Token]:
        """Scan the whole input and return all tokens including the EOF."""
        tokens = []
        while True:
            tok = self.next_token()
            tokens.append(tok)
            if tok.kind is TokenKind.EOF:
                return tokens


def _is_hex(ch: str) -> bool:
    return bool(ch) and ch in "0123456789abcdefABCDEF"
