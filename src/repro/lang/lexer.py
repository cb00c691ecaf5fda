"""Lexer for ucc-C, the small C-like language used by the UCC reproduction.

ucc-C is the stand-in for the NesC/C sources the paper compiles with
avr-gcc.  The token set covers everything the shipped workloads need:
unsigned 8/16-bit scalars, fixed-size arrays, functions, the usual
C operators, and decimal/hex/char literals.

The lexer is a hand-written scanner over compiled patterns.  It produces a
flat list of :class:`Token` and raises :class:`~repro.lang.errors.LexError`
on any character it does not understand.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from dataclasses import dataclass

from .errors import LexError, SourceLocation


class TokenKind(enum.Enum):
    """Lexical categories of ucc-C tokens."""

    IDENT = "ident"
    INT = "int"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "u8",
        "u16",
        "void",
        "if",
        "else",
        "while",
        "for",
        "return",
        "break",
        "continue",
        "const",
    }
)

# Multi-character punctuators first so maximal munch works by scanning
# this tuple in order.
PUNCTUATORS = (
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "++",
    "--",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "~",
    "!",
    "<",
    ">",
    "=",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
)


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``value`` is the lexeme text for identifiers/keywords/punctuators and
    the decoded integer value (as ``int``) for integer literals.
    """

    kind: TokenKind
    value: object
    location: SourceLocation

    @property
    def text(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.value!r}, {self.location})"


_ESCAPES = {
    "n": 10,
    "t": 9,
    "r": 13,
    "0": 0,
    "\\": 92,
    "'": 39,
}


# One match skips the trivia before a token (whitespace, // and /* */
# comments) and takes a run of word characters or a punctuator.  ``\w``
# is exactly ``str.isalnum()`` or ``_``; which token a word run starts
# is decided on its first character.  The punctuator alternation tries
# PUNCTUATORS in order, so it munches maximally, and it never takes the
# ``/`` of an unterminated block comment.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)*"
    r"(?:(?P<word>\w+)|(?!/\*)(?P<punct>"
    + "|".join(re.escape(punct) for punct in PUNCTUATORS)
    + "))?"
)
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]+")


class Lexer:
    """Converts ucc-C source text into a token stream.

    Each token costs one compiled-pattern match from the current
    offset; its line and column come from the offsets of the line
    starts before it.
    """

    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self._line_starts = [0] + [match.end() for match in re.finditer("\n", source)]

    def _loc(self, pos: int) -> SourceLocation:
        line = bisect_right(self._line_starts, pos)
        return SourceLocation(line, pos - self._line_starts[line - 1] + 1, self.filename)

    # -- scanners for the rarer tokens -----------------------------------
    # Each returns the token and the offset just after it.

    def _scan_number(self, start: int, loc: SourceLocation) -> tuple[Token, int]:
        source = self.source
        if source.startswith(("0x", "0X"), start):
            digits = _HEX_DIGITS.match(source, start + 2)
            if digits is None:
                raise LexError("malformed hex literal", loc)
            end = digits.end()
            return Token(TokenKind.INT, int(source[start:end], 16), loc), end
        end = start + 1
        size = len(source)
        while end < size and source[end].isdigit():
            end += 1
        if end < size and (source[end].isalpha() or source[end] == "_"):
            raise LexError(
                f"invalid character {source[end]!r} in number", self._loc(end)
            )
        return Token(TokenKind.INT, int(source[start:end], 10), loc), end

    def _scan_char(self, start: int, loc: SourceLocation) -> tuple[Token, int]:
        source = self.source
        pos = start + 1  # past the opening quote
        ch = source[pos : pos + 1]
        if ch == "":
            raise LexError("unterminated character literal", loc)
        if ch == "\\":
            esc = source[pos + 1 : pos + 2]
            if esc not in _ESCAPES:
                raise LexError(f"unknown escape '\\{esc}'", loc)
            value = _ESCAPES[esc]
            pos += 2
        else:
            value = ord(ch)
            pos += 1
        if source[pos : pos + 1] != "'":
            raise LexError("unterminated character literal", loc)
        return Token(TokenKind.INT, value, loc), pos + 1

    # -- public API ------------------------------------------------------

    def tokenize(self) -> list[Token]:
        """Scan the whole input and return all tokens including the EOF."""
        source = self.source
        match = _TOKEN.match
        tokens: list[Token] = []
        append = tokens.append
        pos = self.pos
        while True:
            found = match(source, pos)
            kind = found.lastgroup
            # Without a word or punctuator, the token (if any) starts
            # where the trivia ends and its scanner finds its end.
            start, end = found.span(kind) if kind else (found.end(), -1)
            loc = self._loc(start)
            if kind == "punct":
                append(Token(TokenKind.PUNCT, source[start:end], loc))
                pos = end
                continue
            ch = source[start : start + 1]
            if kind == "word" and (ch.isalpha() or ch == "_"):
                text = source[start:end]
                append(
                    Token(
                        TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT,
                        text,
                        loc,
                    )
                )
                pos = end
            elif ch.isdigit():
                token, pos = self._scan_number(start, loc)
                append(token)
            elif ch == "'":
                token, pos = self._scan_char(start, loc)
                append(token)
            elif ch == "":
                append(Token(TokenKind.EOF, "", loc))
                self.pos = start
                return tokens
            elif source.startswith("/*", start):
                raise LexError("unterminated block comment", loc)
            else:
                raise LexError(f"unexpected character {ch!r}", loc)


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    """Convenience wrapper: tokenize ``source`` into a list of tokens."""
    return Lexer(source, filename).tokenize()
