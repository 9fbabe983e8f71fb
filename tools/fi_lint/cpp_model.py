"""Lexer and structural C++ model for fi_lint.

This is a deliberately small "AST-lite" front end: a full C++ tokenizer
(comments, raw strings, char/string literals, preprocessor lines) plus a
structural parser that recovers exactly the shapes the checkers need —
class/struct definitions with their non-static data members, member and
free function bodies, and typed local/parameter declarations inside those
bodies. It does not type-check and it does not need a compiler; the same
checker layer can be re-pointed at a libclang cursor visitor when the
Python clang bindings are available (see docs/STATIC_ANALYSIS.md), but the
committed engine must run in a bare container, so it parses tokens itself.

The parser is tuned to this repository's idiom (one class per header,
out-of-line definitions as `Class::method`, no macros that hide braces).
Anything it cannot understand it skips conservatively — checkers only act
on structures that were positively recognized.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

ID = "id"
NUM = "num"
STR = "str"
CHR = "chr"
PUNCT = "punct"

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<rawstr>R"(?P<delim>[^()\s\\]*)\(.*?\)(?P=delim)")
  | (?P<str>"(?:[^"\\\n]|\\.)*")
  | (?P<chr>'(?:[^'\\\n]|\\.)*')
  | (?P<num>\.?\d(?:[\w.]|[eEpP][+-])*)
  | (?P<id>[A-Za-z_]\w*)
  | (?P<punct>::|->|\+\+|--|<<=|>>=|<<|[-+*/%^&|!<>=]=|&&|\|\||\.\.\.|[{}()\[\];:,.?~@#]|[-+*/%^&|!<>=])
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int


class SourceFile:
    """Tokenized file: code tokens plus per-line comment map."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.tokens: list[Token] = []
        # line number -> concatenated comment text on that line
        self.comments: dict[int, str] = {}
        self._lex(text)
        self.code_lines: set[int] = {t.line for t in self.tokens}

    def _lex(self, text: str) -> None:
        # Strip line continuations inside preprocessor directives by
        # removing whole pp-lines up front (keeping newlines for line
        # numbering).
        lines = text.split("\n")
        in_pp = False
        for i, line in enumerate(lines):
            stripped = line.lstrip()
            if in_pp or stripped.startswith("#"):
                in_pp = line.rstrip().endswith("\\")
                lines[i] = ""
        text = "\n".join(lines)

        pos = 0
        line = 1
        n = len(text)
        while pos < n:
            m = _TOKEN_RE.match(text, pos)
            if not m:
                pos += 1  # unknown byte: skip
                continue
            kind = m.lastgroup
            raw = m.group(0)
            if kind == "delim":  # inner group of rawstr
                kind = "rawstr"
            if kind == "ws":
                pass
            elif kind in ("line_comment", "block_comment"):
                first = raw[2:].strip("*/ \t")
                existing = self.comments.get(line, "")
                self.comments[line] = (existing + " " + raw).strip()
                # block comments may span lines; attach to every line they
                # touch so "comment on the preceding line" lookups work.
                for extra in range(1, raw.count("\n") + 1):
                    self.comments.setdefault(line + extra, raw)
            elif kind in ("rawstr", "str"):
                self.tokens.append(Token(STR, raw, line))
            elif kind == "chr":
                self.tokens.append(Token(CHR, raw, line))
            elif kind == "num":
                self.tokens.append(Token(NUM, raw, line))
            elif kind == "id":
                self.tokens.append(Token(ID, raw, line))
            else:
                self.tokens.append(Token(PUNCT, raw, line))
            line += raw.count("\n")
            pos = m.end()

    def comment_for(self, line: int) -> str:
        """Comment text attached to `line`: the same line, plus the
        contiguous run of comment-only lines directly above (so a wrapped
        fi-lint annotation still binds), plus a trailing comment on the
        immediately preceding code line."""
        parts: list[str] = []
        ln = line - 1
        while ln in self.comments and ln not in self.code_lines:
            parts.append(self.comments[ln])
            ln -= 1
        if ln == line - 1 and ln in self.comments:
            parts.append(self.comments[ln])
        parts.reverse()
        if line in self.comments:
            parts.append(self.comments[line])
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Structural model
# ---------------------------------------------------------------------------


@dataclass
class Member:
    name: str
    type_text: str
    line: int
    is_static: bool = False


@dataclass
class Method:
    name: str
    line: int
    param_text: str
    body: list[Token] | None  # None for declarations without inline body


@dataclass
class ClassDef:
    name: str
    path: str
    line: int
    members: list[Member] = field(default_factory=list)
    methods: dict[str, Method] = field(default_factory=dict)


@dataclass
class FunctionDef:
    """A function with a body: free, out-of-line member, or inline member."""

    name: str  # unqualified
    class_name: str | None  # None for free functions
    path: str
    line: int
    param_tokens: list[Token]
    body: list[Token]


_TYPE_NOISE = {
    "const", "constexpr", "inline", "mutable", "volatile", "typename",
    "virtual", "explicit", "friend", "extern", "thread_local", "register",
    "struct", "class", "unsigned", "signed", "long", "short",
}
_STMT_SKIP_HEADS = {
    "using", "typedef", "friend", "static_assert", "template", "operator",
    "public", "private", "protected",
}


def _split_statements(tokens: list[Token]) -> list[tuple[list[Token], list[Token] | None]]:
    """Splits a brace-delimited body's direct children into statements.

    Returns (header_tokens, block_tokens_or_None) pairs: a statement either
    ends at `;` (block None) or owns a braced block (function body, nested
    class body, ...). Nesting inside parens/braces is kept intact.
    """
    out: list[tuple[list[Token], list[Token] | None]] = []
    stmt: list[Token] = []
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.text == ";":
            if stmt:
                out.append((stmt, None))
            stmt = []
            i += 1
        elif tok.text == "{":
            depth = 1
            j = i + 1
            while j < n and depth:
                if tokens[j].text == "{":
                    depth += 1
                elif tokens[j].text == "}":
                    depth -= 1
                j += 1
            block = tokens[i + 1 : j - 1]
            # `Type name{init};` and `= {...}` are part of a declaration,
            # not a standalone block: keep scanning until the `;`.
            k = j
            if k < n and tokens[k].text == ";":
                # Distinguish member-init braces from class/function
                # bodies ending in `};`: class/struct defs end in `};` too.
                heads = {t.text for t in stmt}
                if ("class" in heads or "struct" in heads or "enum" in heads
                        or "union" in heads) and "=" not in [t.text for t in stmt]:
                    out.append((stmt, block))
                    stmt = []
                    i = k + 1
                    continue
                if _has_toplevel_parens(stmt) and "=" not in [
                    t.text for t in stmt
                ]:
                    # `int f() { ... };` inline method with trailing ;
                    out.append((stmt, block))
                    stmt = []
                    i = k + 1
                    continue
                stmt.append(tok)  # brace-init: fold into the declaration
                stmt.extend(tokens[i + 1 : j])
                i = j
                continue
            out.append((stmt, block))
            stmt = []
            i = j
        elif tok.text == "(":
            depth = 1
            stmt.append(tok)
            j = i + 1
            while j < n and depth:
                if tokens[j].text == "(":
                    depth += 1
                elif tokens[j].text == ")":
                    depth -= 1
                stmt.append(tokens[j])
                j += 1
            i = j
        else:
            stmt.append(tok)
            i += 1
    if stmt:
        out.append((stmt, None))
    return out


def _has_toplevel_parens(stmt: list[Token]) -> bool:
    """True when the statement has a `(` outside template angle brackets."""
    angle = 0
    for idx, tok in enumerate(stmt):
        if tok.text == "<" and idx and stmt[idx - 1].kind == ID:
            angle += 1
        elif tok.text == ">" and angle:
            angle -= 1
        elif tok.text == "(" and angle == 0:
            return True
    return False


def _skip_group(stmt: list[Token], i: int) -> int:
    """Index just past the bracket group opening at `stmt[i]`."""
    close = {"(": ")", "[": "]"}[stmt[i].text]
    depth = 0
    for j in range(i, len(stmt)):
        if stmt[j].text == stmt[i].text:
            depth += 1
        elif stmt[j].text == close:
            depth -= 1
            if depth == 0:
                return j + 1
    return len(stmt)


def _class_head(stmt: list[Token]) -> tuple[str, Token | None] | None:
    """(key, name) when `stmt` heads a class/struct/union definition.

    Attributes (`[[nodiscard]]`) and `alignas(...)` are skipped: they
    neither name the type nor make the head look like a function. Any
    other top-level `(` marks a function head, and gives None. The name is
    None for an anonymous type.
    """
    head: list[Token] = []
    i = 0
    while i < len(stmt):
        nxt = stmt[i + 1].text if i + 1 < len(stmt) else ""
        if stmt[i].text == "[" and nxt == "[":
            i = _skip_group(stmt, i)
        elif stmt[i].text == "alignas" and nxt == "(":
            i = _skip_group(stmt, i + 1)
        else:
            head.append(stmt[i])
            i += 1
    key = next((k for k, t in enumerate(head)
                if t.text in ("class", "struct", "union")), None)
    if key is None or _has_toplevel_parens(head):
        return None
    name = None
    for tok in head[key + 1:]:
        if tok.kind == ID and tok.text != "final":
            name = tok
        elif name is not None or tok.text == ":":
            break
    return head[key].text, name


def _declarator_name(stmt: list[Token]) -> tuple[str, int, str] | None:
    """(name, line, type_text) of a member-variable declaration, or None."""
    angle = 0
    last_id: Token | None = None
    type_end = 0
    for idx, tok in enumerate(stmt):
        if tok.text == "<" and idx and stmt[idx - 1].kind == ID:
            angle += 1
            continue
        if tok.text == ">" and angle:
            angle -= 1
            continue
        if angle:
            continue
        if tok.text == "operator":
            return None  # `T& operator=(...) = delete;` et al.
        if tok.text in ("=", "[", ":"):
            break
        if tok.kind == ID and tok.text not in _TYPE_NOISE:
            if last_id is not None:
                type_end = idx
            last_id = tok
        elif tok.text == "(":
            return None  # function declaration
    if last_id is None or type_end == 0:
        return None
    type_text = " ".join(t.text for t in stmt[:type_end])
    return last_id.text, last_id.line, type_text


def core_type_name(type_text: str) -> str | None:
    """Last plain identifier of a type, outside template args.

    `std::vector<AllocEntry>` -> vector; `adversary::AdversaryCounters` ->
    AdversaryCounters; `const Sector &` -> Sector.
    """
    angle = 0
    last = None
    for m in re.finditer(r"[A-Za-z_]\w*|[<>]", type_text):
        t = m.group(0)
        if t == "<":
            angle += 1
        elif t == ">":
            angle = max(0, angle - 1)
        elif angle == 0 and t not in _TYPE_NOISE:
            last = t
    return last


class Model:
    """All recognized classes and function bodies across the scanned files."""

    def __init__(self) -> None:
        self.files: dict[str, SourceFile] = {}
        # simple name -> all definitions seen (two files may define the
        # same simple name, such as a nested `Entry` struct); lookups
        # resolve by path affinity via class_def().
        self.class_defs: dict[str, list[ClassDef]] = {}
        self.functions: list[FunctionDef] = []

    # -- construction --------------------------------------------------------

    def add_file(self, path: str, text: str) -> None:
        src = SourceFile(path, text)
        self.files[path] = src
        self._scan_scope(src, src.tokens, class_name=None)

    def _scan_scope(self, src: SourceFile, tokens: list[Token],
                    class_name: str | None) -> None:
        for stmt, block in _split_statements(tokens):
            if not stmt:
                continue
            heads = [t.text for t in stmt]
            if block is None:
                continue
            if heads[0] == "namespace" or (
                heads[0] == "extern" and len(stmt) > 1 and stmt[1].kind == STR
            ):
                self._scan_scope(src, block, class_name)
                continue
            if "enum" in heads:
                continue
            if self._add_class_at(src, stmt, block):
                continue
            # Function definition?
            fn = self._function_of(stmt)
            if fn is None:
                continue
            name_tok, cls, params = fn
            self.functions.append(
                FunctionDef(
                    name=name_tok.text,
                    class_name=cls or class_name,
                    path=src.path,
                    line=name_tok.line,
                    param_tokens=params,
                    body=block,
                )
            )

    @staticmethod
    def _function_of(stmt: list[Token]) -> tuple[Token, str | None, list[Token]] | None:
        """Recognizes `[type] [Class ::] name ( params ) [quals]` heads."""
        angle = 0
        for idx, tok in enumerate(stmt):
            if tok.text == "<" and idx and stmt[idx - 1].kind == ID:
                angle += 1
            elif tok.text == ">" and angle:
                angle -= 1
            elif tok.text == "(" and angle == 0:
                if idx == 0 or stmt[idx - 1].kind != ID:
                    return None
                name_tok = stmt[idx - 1]
                cls = None
                if idx >= 3 and stmt[idx - 2].text == "::" and stmt[idx - 3].kind == ID:
                    cls = stmt[idx - 3].text
                depth = 1
                j = idx + 1
                while j < len(stmt) and depth:
                    if stmt[j].text == "(":
                        depth += 1
                    elif stmt[j].text == ")":
                        depth -= 1
                    j += 1
                return name_tok, cls, stmt[idx + 1 : j - 1]
        return None

    def _add_class_at(self, src: SourceFile, stmt: list[Token],
                      block: list[Token]) -> bool:
        """Models `stmt { block }` if it defines a class or struct; True
        when `stmt` is any class/struct/union head (done with it)."""
        head = _class_head(stmt)
        if head is None:
            return False
        key, name = head
        if name is not None and key != "union":
            self._add_class(src, name.text, name.line, block)
        return True

    def _add_class(self, src: SourceFile, name: str, line: int,
                   body: list[Token]) -> None:
        cls = ClassDef(name=name, path=src.path, line=line)
        self._scan_class_body(src, cls, body)
        defs = self.class_defs.setdefault(name, [])
        if any(d.path == src.path and d.line == line for d in defs):
            return
        defs.append(cls)

    def _scan_class_body(self, src: SourceFile, cls: ClassDef,
                         tokens: list[Token]) -> None:
        for stmt, block in _split_statements(tokens):
            heads = [t.text for t in stmt]
            # strip access labels glued to the front: `public :` etc.
            while len(heads) >= 2 and heads[0] in (
                "public", "private", "protected",
            ) and heads[1] == ":":
                stmt = stmt[2:]
                heads = heads[2:]
            if not stmt:
                continue
            if heads[0] in _STMT_SKIP_HEADS:
                continue
            if "enum" in heads:
                continue
            if block is not None and self._add_class_at(src, stmt, block):
                continue
            fn = self._function_of(stmt)
            if fn is not None:
                name_tok, _, params = fn
                param_text = " ".join(t.text for t in params)
                cls.methods[name_tok.text] = Method(
                    name=name_tok.text,
                    line=name_tok.line,
                    param_text=param_text,
                    body=block,
                )
                if block is not None:
                    self.functions.append(
                        FunctionDef(
                            name=name_tok.text,
                            class_name=cls.name,
                            path=src.path,
                            line=name_tok.line,
                            param_tokens=params,
                            body=block,
                        )
                    )
                continue
            if block is not None:
                continue  # unrecognized braced construct
            decl = _declarator_name(stmt)
            if decl is None:
                continue
            mname, mline, type_text = decl
            cls.members.append(
                Member(
                    name=mname,
                    type_text=type_text,
                    line=mline,
                    is_static="static" in heads,
                )
            )

    # -- queries -------------------------------------------------------------

    def class_def(self, type_name: str, near: str | None = None) -> ClassDef | None:
        """The definition of `type_name`, or None if unknown / unresolvably
        ambiguous. With several same-named definitions, `near` (a file the
        reference appears in) picks the one in the same directory or with
        the same file stem; no affinity match means ambiguity wins."""
        defs = self.class_defs.get(type_name)
        if not defs:
            return None
        if len(defs) == 1:
            return defs[0]
        if near is not None:
            near_dir = os.path.dirname(near)
            near_stem = os.path.splitext(os.path.basename(near))[0]
            same_dir = [d for d in defs if os.path.dirname(d.path) == near_dir]
            if len(same_dir) == 1:
                return same_dir[0]
            same_stem = [
                d for d in (same_dir or defs)
                if os.path.splitext(os.path.basename(d.path))[0] == near_stem
            ]
            if len(same_stem) == 1:
                return same_stem[0]
        return None

    def struct_fields(self, type_name: str,
                      near: str | None = None) -> dict[str, Member] | None:
        """Non-static data members of `type_name`, or None if unknown or
        unresolvably ambiguous (see class_def)."""
        cls = self.class_def(type_name, near)
        if cls is None:
            return None
        return {m.name: m for m in cls.members if not m.is_static}

    def body_of(self, class_name: str | None, fn_name: str) -> FunctionDef | None:
        for fn in self.functions:
            if fn.name == fn_name and fn.class_name == class_name:
                return fn
        return None


# ---------------------------------------------------------------------------
# Body-level helpers shared by checkers
# ---------------------------------------------------------------------------


def identifiers(tokens: list[Token]) -> set[str]:
    return {t.text for t in tokens if t.kind == ID}


def local_declarations(model: Model, fn: FunctionDef) -> dict[str, str]:
    """name -> type_text for parameters, locals and range-for variables
    whose type is recognizable (a known struct or an explicit spelled type).
    """
    out: dict[str, str] = {}

    def scan_decl_seq(tokens: list[Token]) -> None:
        decl = _declarator_name(tokens)
        if decl is None:
            return
        name, _, type_text = decl
        if type_text:
            out[name] = type_text

    # parameters: split at top-level commas
    param_groups: list[list[Token]] = [[]]
    depth = 0
    for tok in fn.param_tokens:
        if tok.text in ("(", "<", "["):
            depth += 1
        elif tok.text in (")", ">", "]") and depth:
            depth -= 1
        if tok.text == "," and depth == 0:
            param_groups.append([])
        else:
            param_groups[-1].append(tok)
    for group in param_groups:
        scan_decl_seq(group)

    # body statements (flattened through nested blocks)
    def walk(tokens: list[Token]) -> None:
        for stmt, block in _split_statements(tokens):
            if stmt:
                # range-for: `for ( decl : expr )` appears folded into one
                # stmt because parens are kept intact; find the inner decl.
                if stmt[0].text == "for" and len(stmt) > 2:
                    inner = stmt[2:-1] if stmt[1].text == "(" else []
                    colon = next(
                        (i for i, t in enumerate(inner) if t.text == ":"), None
                    )
                    if colon is not None:
                        scan_decl_seq(inner[:colon])
                elif stmt[0].kind == ID and stmt[0].text not in (
                    "return", "if", "while", "switch", "delete", "throw", "goto",
                ):
                    # plain declaration statements; cheap filter: first two
                    # meaningful tokens look like `Type name`.
                    scan_decl_seq(stmt)
            if block is not None:
                walk(block)

    walk(fn.body)
    return out


def field_accesses(tokens: list[Token]) -> list[tuple[str, str, int]]:
    """All `base.field` / `base->field` accesses as (base, field, line)."""
    out = []
    for i in range(len(tokens) - 2):
        if (
            tokens[i].kind == ID
            and tokens[i + 1].text in (".", "->")
            and tokens[i + 2].kind == ID
        ):
            out.append((tokens[i].text, tokens[i + 2].text, tokens[i].line))
    return out
