"""The three fi_lint checkers: serialization-coverage, determinism, and
snapshot-format hygiene. See docs/STATIC_ANALYSIS.md for the catalog and
the suppression policy.

Findings carry a rule id; suppressions are source comments:

    // fi-lint: not-serialized(<reason>)     on a data-member declaration
    // fi-lint: allow(<rule>, <reason>)      on the flagged line (or above)

A suppression with an empty reason is itself a finding — exemptions must
say why, so the next refactor can re-litigate them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from cpp_model import (
    ID,
    FunctionDef,
    Model,
    Token,
    core_type_name,
    field_accesses,
    identifiers,
    local_declarations,
)

# ---------------------------------------------------------------------------
# Findings and suppressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: error: {self.message} [{self.rule}]"


_NOT_SERIALIZED_RE = re.compile(r"fi-lint:\s*not-serialized\(([^)]*)\)")
_ALLOW_RE = re.compile(r"fi-lint:\s*allow\(\s*([\w-]+)\s*(?:,([^)]*))?\)")


def not_serialized_reason(model: Model, path: str, line: int) -> str | None:
    """The not-serialized(<reason>) annotation covering `line`, if any."""
    src = model.files.get(path)
    if src is None:
        return None
    m = _NOT_SERIALIZED_RE.search(src.comment_for(line))
    return m.group(1).strip() if m else None


def allowed(model: Model, path: str, line: int, rule: str) -> str | None:
    """The allow(<rule>, <reason>) annotation covering `line`, if any.

    Returns the reason string ("" when missing — caller flags that)."""
    src = model.files.get(path)
    if src is None:
        return None
    for m in _ALLOW_RE.finditer(src.comment_for(line)):
        if rule.endswith(m.group(1)) or m.group(1) == rule:
            return (m.group(2) or "").strip()
    return None


def _exempt(findings: list[Finding], model: Model, path: str,
            line: int) -> bool:
    """True when a not-serialized() annotation covers `line`; an empty
    reason still exempts but is flagged — exemptions must say why."""
    reason = not_serialized_reason(model, path, line)
    if reason is None:
        return False
    if not reason:
        findings.append(
            Finding(path, line, "suppression-without-reason",
                    "fi-lint: not-serialized() needs a reason")
        )
    return True


def _emit(findings: list[Finding], model: Model, path: str, line: int,
          rule: str, message: str) -> None:
    """Appends the finding unless an allow() annotation covers it; an
    annotation without a reason is converted into its own finding."""
    reason = allowed(model, path, line, rule)
    if reason is None:
        findings.append(Finding(path, line, rule, message))
    elif not reason:
        findings.append(
            Finding(path, line, "suppression-without-reason",
                    f"fi-lint: allow({rule}) needs a reason")
        )


# ---------------------------------------------------------------------------
# Serializer-pair discovery (shared by serialization-coverage and the
# rw-mismatch hygiene rule)
# ---------------------------------------------------------------------------

_SAVE_NAMES = {"save": "load", "save_state": "load_state"}


@dataclass
class SerializerPair:
    subject: str | None  # class simple name, or None for free-function pairs
    save: FunctionDef
    load: FunctionDef
    # A class's `save_X`/`load_X` methods: a component of the snapshot body
    # that the class encodes apart from its `save`/`load` slot. Its members
    # count toward the class pair's coverage; its own bodies get the
    # element-wise and mirror checks.
    component: bool = False


def serializer_pairs(model: Model) -> list[SerializerPair]:
    pairs: list[SerializerPair] = []
    seen: set[tuple[str | None, str]] = set()
    for fn in model.functions:
        if fn.name in _SAVE_NAMES and fn.class_name:
            load = model.body_of(fn.class_name, _SAVE_NAMES[fn.name])
            key = (fn.class_name, fn.name)
            if load is not None and key not in seen:
                seen.add(key)
                pairs.append(SerializerPair(fn.class_name, fn, load))
        elif fn.class_name and fn.name.startswith("save_"):
            load = model.body_of(fn.class_name,
                                 "load_" + fn.name[len("save_"):])
            key = (fn.class_name, fn.name)
            if load is not None and key not in seen:
                seen.add(key)
                pairs.append(SerializerPair(fn.class_name, fn, load,
                                            component=True))
        elif fn.class_name is None and fn.name.startswith("save_"):
            load = model.body_of(None, "load_" + fn.name[len("save_"):])
            key = (None, fn.name)
            if load is not None and key not in seen:
                seen.add(key)
                pairs.append(SerializerPair(None, fn, load))
    return pairs


# ---------------------------------------------------------------------------
# Checker 1: serialization-coverage
# ---------------------------------------------------------------------------


def _with_helpers(model: Model, fn: FunctionDef, subject: str | None,
                  side: str) -> list[FunctionDef]:
    """`fn` plus every same-class serialization helper it (transitively)
    calls: a serializer that delegates to component savers (`save`
    dispatching to `save_misc` / `save_files` through
    `save_state_component`) is analyzed as if the helpers were inlined, so
    coverage follows the refactor. Only methods that take the stream
    (`BinaryWriter&` on the save side, `BinaryReader&` on the load side)
    count — pure-computation helpers stay out of the coverage closure."""
    takes_stream = _writer_param if side == "save" else _reader_param
    out: list[FunctionDef] = []
    visited: set[str] = set()
    stack = [fn]
    while stack:
        cur = stack.pop()
        if cur.name in visited:
            continue
        visited.add(cur.name)
        out.append(cur)
        if subject is None:
            continue
        for name in sorted(identifiers(cur.body)):
            if name not in visited:
                helper = model.body_of(subject, name)
                if helper is not None and takes_stream(helper) is not None:
                    stack.append(helper)
    return out


def check_serialization_coverage(model: Model) -> list[Finding]:
    """Every non-static data member of a class with a save/load (or
    save_state/load_state) pair must be referenced in both bodies — same-
    class helper methods called from a body count as part of it — unless
    annotated `// fi-lint: not-serialized(<reason>)`. Additionally, when a
    serializer encodes a known struct element-wise (`rec.desc.size`, ...),
    every field of that struct must be touched through the same base — the
    drift class PR 5 hit with AdversaryCounters.compensation_paid.
    A class's component pairs (`save_files`/`load_files` beside
    `save`/`load`) add their closures to the member check of its main pair.
    """
    findings: list[Finding] = []
    pairs = serializer_pairs(model)
    for pair in pairs:
        save_fns = _with_helpers(model, pair.save, pair.subject, "save")
        load_fns = _with_helpers(model, pair.load, pair.subject, "load")
        member_save_fns = list(save_fns)
        member_load_fns = list(load_fns)
        if not pair.component:
            for other in pairs:
                if other.component and other.subject == pair.subject:
                    member_save_fns += _with_helpers(
                        model, other.save, other.subject, "save")
                    member_load_fns += _with_helpers(
                        model, other.load, other.subject, "load")
        save_ids: set[str] = set()
        for fn in member_save_fns:
            save_ids |= identifiers(fn.body)
        load_ids: set[str] = set()
        for fn in member_load_fns:
            load_ids |= identifiers(fn.body)

        subject_cls = model.class_def(pair.subject, pair.save.path) \
            if pair.subject is not None and not pair.component else None
        if subject_cls is not None:
            fields = model.struct_fields(pair.subject, pair.save.path) or {}
            for member in fields.values():
                cls_path = subject_cls.path
                if _exempt(findings, model, cls_path, member.line):
                    continue
                if member.name not in save_ids:
                    _emit(findings, model, cls_path, member.line,
                          "serialization-coverage/field-missing-in-save",
                          f"{pair.subject}::{member.name} is never referenced in "
                          f"{pair.subject}::{pair.save.name} "
                          f"({pair.save.path}:{pair.save.line}); serialize it or "
                          "annotate the member `// fi-lint: not-serialized(<why>)`")
                if member.name not in load_ids:
                    _emit(findings, model, cls_path, member.line,
                          "serialization-coverage/field-missing-in-load",
                          f"{pair.subject}::{member.name} is never referenced in "
                          f"{pair.subject}::{pair.load.name} "
                          f"({pair.load.path}:{pair.load.line}); restore it or "
                          "annotate the member `// fi-lint: not-serialized(<why>)`")

        for fn in save_fns:
            findings.extend(_aggregate_coverage(model, pair, fn, "save"))
        for fn in load_fns:
            findings.extend(_aggregate_coverage(model, pair, fn, "load"))
    return findings


def _aggregate_coverage(model: Model, pair: SerializerPair, fn: FunctionDef,
                        side: str) -> list[Finding]:
    """Element-wise struct encoding coverage within one serializer body."""
    findings: list[Finding] = []
    types: dict[str, str] = {}  # var name -> struct simple name

    for name, type_text in local_declarations(model, fn).items():
        core = core_type_name(type_text)
        if core and model.struct_fields(core, fn.path) is not None:
            types[name] = core
    subject_cls = model.class_def(pair.subject, fn.path) \
        if pair.subject is not None else None
    if subject_cls is not None:
        for member in (model.struct_fields(pair.subject, fn.path) or {}).values():
            # Reference members (config handles like `const Params&`) and
            # members already exempted with not-serialized() are never
            # encoded element-wise; reading one field of them for
            # validation must not demand the rest.
            if "&" in member.type_text:
                continue
            if not_serialized_reason(model, subject_cls.path,
                                     member.line) is not None:
                continue
            core = core_type_name(member.type_text)
            if core and model.struct_fields(core, fn.path) is not None:
                types[member.name] = core

    accesses = field_accesses(fn.body)
    touched: dict[str, set[str]] = {}
    first_line: dict[str, int] = {}
    for base, fld, line in accesses:
        if base in types:
            touched.setdefault(base, set()).add(fld)
            first_line.setdefault(base, line)

    for base, fields_touched in touched.items():
        struct_name = types[base]
        cls = model.class_def(struct_name, fn.path)
        decl = model.struct_fields(struct_name, fn.path) or {}
        # Only treat the base as "encoded element-wise here" when at least
        # two touched names are real data members (not method calls like
        # counters.save(writer)) — one stray field read is a validation or
        # a lookup, while a genuine element-wise encode walks several.
        if cls is None or sum(1 for f in fields_touched if f in decl) < 2:
            continue
        # A struct serialized through its own save/load pair keeps the
        # member-level rule; the aggregate rule is for plain structs.
        if "save" in cls.methods or "save_state" in cls.methods:
            continue
        for fname, member in decl.items():
            if fname in fields_touched:
                continue
            if _exempt(findings, model, cls.path, member.line):
                continue
            _emit(findings, model, fn.path, first_line[base],
                  f"serialization-coverage/aggregate-missing-in-{side}",
                  f"{struct_name}::{fname} is never touched through `{base}.` in "
                  f"{fn.name} ({fn.path}:{fn.line}) although {struct_name} is "
                  f"encoded element-wise there; {side} it or annotate the field "
                  "`// fi-lint: not-serialized(<why>)` at "
                  f"{cls.path}:{member.line}")
    return findings


# ---------------------------------------------------------------------------
# Checker 2: determinism
# ---------------------------------------------------------------------------

_WALL_CLOCK_IDS = {
    "system_clock", "steady_clock", "high_resolution_clock", "gettimeofday",
    "localtime", "gmtime", "mktime", "timespec_get", "clock_gettime",
}
_WALL_CLOCK_CALLS = {"time", "clock"}
_RAW_RAND_IDS = {
    "rand", "srand", "random_device", "mt19937", "mt19937_64", "minstd_rand",
    "minstd_rand0", "default_random_engine", "knuth_b", "ranlux24", "ranlux48",
}
_UNORDERED_RE = re.compile(r"\bunordered_(map|set|multimap|multiset)\b")
_CANONICAL_RNG = "Xoshiro256"


def check_determinism(model: Model, paths: set[str]) -> list[Finding]:
    """Bans nondeterminism sources in state-mutating layers: wall clocks,
    non-canonical RNGs, literal-seeded RNG streams, iteration over unordered
    containers, and pointer-keyed ordered containers."""
    findings: list[Finding] = []

    # Unordered-typed names across the whole model (members of any class),
    # so iteration in a .cpp over a header-declared member is seen.
    unordered_members: set[str] = set()
    for defs in model.class_defs.values():
        for cls in defs:
            for member in cls.members:
                if _UNORDERED_RE.search(member.type_text):
                    unordered_members.add(member.name)

    for path in sorted(paths):
        src = model.files.get(path)
        if src is None:
            continue
        tokens = src.tokens
        for i, tok in enumerate(tokens):
            if tok.kind != ID:
                continue
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            if tok.text in _WALL_CLOCK_IDS:
                _emit(findings, model, path, tok.line, "determinism/wall-clock",
                      f"`{tok.text}` is wall-clock state; simulation code must "
                      "derive all time from the engine clock "
                      "(annotate `// fi-lint: allow(wall-clock, <why>)` for "
                      "host-side timing that never feeds canonical state)")
            elif tok.text in _WALL_CLOCK_CALLS and nxt is not None \
                    and nxt.text == "(" and not _is_member_access(tokens, i) \
                    and not _is_declaration_name(tokens, i):
                _emit(findings, model, path, tok.line, "determinism/wall-clock",
                      f"`{tok.text}()` reads the host clock; use the engine "
                      "clock (`Network::now`)")
            elif tok.text in _RAW_RAND_IDS and not _is_member_access(tokens, i):
                _emit(findings, model, path, tok.line, "determinism/raw-rand",
                      f"`{tok.text}` is not reproducible across platforms; all "
                      f"randomness must stream from util::{_CANONICAL_RNG}")

        # Literal-seeded canonical RNG: `Xoshiro256 rng(12345)` — a stream
        # that does not derive from the run's seed.
        for i, tok in enumerate(tokens):
            if tok.kind == ID and tok.text == _CANONICAL_RNG:
                j = i + 1
                if j < len(tokens) and tokens[j].kind == ID:  # declared var
                    j += 1
                    if j < len(tokens) and tokens[j].text in ("(", "{"):
                        args, depth = [], 1
                        k = j + 1
                        closer = ")" if tokens[j].text == "(" else "}"
                        opener = tokens[j].text
                        while k < len(tokens) and depth:
                            if tokens[k].text == opener:
                                depth += 1
                            elif tokens[k].text == closer:
                                depth -= 1
                            if depth:
                                args.append(tokens[k])
                            k += 1
                        if args and all(
                            t.kind == NUM_KIND or t.text in ("+", "-", "*", "^",
                                                             "<<", ",", "u", "ULL")
                            for t in args
                        ):
                            _emit(findings, model, path, tokens[i].line,
                                  "determinism/local-rng",
                                  "RNG seeded from a literal constant; derive "
                                  "the stream from the run seed (e.g. "
                                  "`spec.seed ^ salt`) so every draw replays")

        # Iteration over unordered containers.
        local_unordered: set[str] = set(unordered_members)
        for fn in model.functions:
            if fn.path != path:
                continue
            for name, type_text in local_declarations(model, fn).items():
                if _UNORDERED_RE.search(type_text):
                    local_unordered.add(name)
        findings.extend(_unordered_iteration(model, src, local_unordered))

        # Pointer-keyed ordered containers.
        for m in re.finditer(
            r"\b(?:std\s*::\s*)?(map|set|multimap|multiset)\s*<\s*"
            r"(?:const\s+)?\w+(?:\s*::\s*\w+)*\s*\*",
            _file_text_stub(src),
        ):
            line = _line_of_offset(src, m.start())
            _emit(findings, model, path, line, "determinism/pointer-key",
                  f"std::{m.group(1)} keyed by pointer value: iteration order "
                  "follows the allocator; key by a stable id instead")
    return findings


NUM_KIND = "num"


def _is_member_access(tokens: list[Token], i: int) -> bool:
    return i > 0 and tokens[i - 1].text in (".", "->")


def _is_declaration_name(tokens: list[Token], i: int) -> bool:
    """`Time time(...)`-style shadowing: previous token is a type-ish id."""
    return i > 0 and tokens[i - 1].kind == ID


def _unordered_iteration(model: Model, src, unordered_names: set[str]):
    findings: list[Finding] = []
    tokens = src.tokens
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != ID or tok.text not in unordered_names:
            continue
        # direct .begin()/.end()/.cbegin()/.cend() — includes range
        # construction `vector ids(set.begin(), set.end())`
        if (
            i + 2 < n
            and tokens[i + 1].text in (".", "->")
            and tokens[i + 2].text in ("begin", "end", "cbegin", "cend")
        ):
            if tokens[i + 2].text in ("begin", "cbegin"):
                _emit(findings, model, src.path, tok.line,
                      "determinism/unordered-iter",
                      f"iteration over unordered container `{tok.text}`: order "
                      "is allocator/seed dependent; sort first, fold "
                      "commutatively, or annotate "
                      "`// fi-lint: allow(unordered-iter, <why>)`")
            continue
        # range-for: `: name )` or `: obj . name )` / with member access base
        j = i - 1
        while j > 0 and tokens[j].text in (".", "->"):
            j -= 2 if tokens[j - 1].kind == ID else 1
        if j >= 0 and tokens[j].text == ":" and i + 1 < n \
                and tokens[i + 1].text == ")":
            # confirm enclosing `for (`
            k = j - 1
            depth = 0
            while k >= 0:
                if tokens[k].text == ")":
                    depth += 1
                elif tokens[k].text == "(":
                    if depth == 0:
                        break
                    depth -= 1
                k -= 1
            if k > 0 and tokens[k - 1].text == "for":
                _emit(findings, model, src.path, tok.line,
                      "determinism/unordered-iter",
                      f"range-for over unordered container `{tok.text}`: order "
                      "is allocator/seed dependent; sort first, fold "
                      "commutatively, or annotate "
                      "`// fi-lint: allow(unordered-iter, <why>)`")
    return findings


def _file_text_stub(src) -> str:
    """Token-joined text with line tracking for regex rules."""
    if not hasattr(src, "_joined"):
        parts = []
        offsets = []
        pos = 0
        for t in src.tokens:
            offsets.append((pos, t.line))
            parts.append(t.text)
            pos += len(t.text) + 1
        src._joined = " ".join(parts)
        src._offsets = offsets
    return src._joined


def _line_of_offset(src, offset: int) -> int:
    line = 1
    for pos, ln in src._offsets:
        if pos > offset:
            break
        line = ln
    return line


# ---------------------------------------------------------------------------
# Checker 3: snapshot-format hygiene
# ---------------------------------------------------------------------------

_READER_SIZED = {"u8", "u16", "u32", "u64"}
_ALLOC_SINKS = {"reserve", "resize"}


def check_snapshot_hygiene(model: Model) -> list[Finding]:
    findings: list[Finding] = []
    findings.extend(_unchecked_counts(model))
    findings.extend(_rw_mismatch(model))
    return findings


def _reader_param(fn: FunctionDef) -> str | None:
    text = " ".join(t.text for t in fn.param_tokens)
    m = re.search(r"BinaryReader\s*&\s*(\w+)", text)
    return m.group(1) if m else None


def _writer_param(fn: FunctionDef) -> str | None:
    text = " ".join(t.text for t in fn.param_tokens)
    m = re.search(r"BinaryWriter\s*&\s*(\w+)", text)
    return m.group(1) if m else None


def _unchecked_counts(model: Model) -> list[Finding]:
    """A value read straight off the wire must be bounds-validated before it
    sizes an allocation. `reader.count(n)` validates internally; a raw
    `reader.u64()` fed to reserve/resize without an intervening check is the
    hostile-input hole the FISNAP digest can't close (hash-only paths and
    future formats read before digesting)."""
    findings: list[Finding] = []
    for fn in model.functions:
        reader = _reader_param(fn)
        if reader is None:
            continue
        tokens = fn.body
        n = len(tokens)
        raw_vars: dict[str, int] = {}  # var -> line of raw read
        guarded: set[str] = set()
        for i, tok in enumerate(tokens):
            # `x = reader.uNN()` / `Type x = reader.uNN()`
            if (
                tok.kind == ID
                and tok.text == reader
                and i + 2 < n
                and tokens[i + 1].text in (".", "->")
                and tokens[i + 2].kind == ID
            ):
                method = tokens[i + 2].text
                if method in _READER_SIZED and i >= 2 \
                        and tokens[i - 1].text == "=" \
                        and tokens[i - 2].kind == ID:
                    raw_vars[tokens[i - 2].text] = tokens[i - 2].line
            # guards: any comparison or FI_CHECK/if mentioning the var
            if tok.kind == ID and tok.text in raw_vars:
                if _in_guard(tokens, i):
                    guarded.add(tok.text)
                elif (
                    i >= 2
                    and tokens[i - 1].text == "("
                    and tokens[i - 2].kind == ID
                    and tokens[i - 2].text in _ALLOC_SINKS
                    and tok.text not in guarded
                ):
                    _emit(findings, model, fn.path, tok.line,
                          "snapshot-hygiene/unchecked-count",
                          f"`{tok.text}` comes straight from "
                          f"`{reader}.uNN()` and sizes an allocation without "
                          "a bounds check; use `reader.count(min_bytes)` or "
                          "validate against `remaining()` first")
            # inline: reserve(reader.u64())
            if (
                tok.kind == ID
                and tok.text in _ALLOC_SINKS
                and i + 4 < n
                and tokens[i + 1].text == "("
                and tokens[i + 2].text == reader
                and tokens[i + 3].text in (".", "->")
                and tokens[i + 4].kind == ID
                and tokens[i + 4].text in _READER_SIZED
            ):
                _emit(findings, model, fn.path, tok.line,
                      "snapshot-hygiene/unchecked-count",
                      f"allocation sized by an unvalidated `{reader}."
                      f"{tokens[i + 4].text}()`; read through "
                      "`reader.count(min_bytes)` instead")
    return findings


def _in_guard(tokens: list[Token], i: int) -> bool:
    """The identifier at `i` participates in a comparison, or sits inside an
    if/FI_CHECK condition — treated as bounds validation."""
    prev = tokens[i - 1].text if i > 0 else ""
    nxt = tokens[i + 1].text if i + 1 < len(tokens) else ""
    if prev in ("<", ">", "<=", ">=", "==", "!=") or nxt in (
        "<", ">", "<=", ">=", "==", "!=",
    ):
        return True
    # inside parens opened right after `if` / a CHECK-style macro
    depth = 0
    for k in range(i - 1, -1, -1):
        t = tokens[k].text
        if t == ")":
            depth += 1
        elif t == "(":
            if depth == 0:
                head = tokens[k - 1] if k > 0 else None
                return head is not None and (
                    head.text == "if" or head.text.startswith("FI_CHECK")
                )
            depth -= 1
        elif t in (";", "{", "}"):
            return False
    return False


# -- rw mirror symmetry ------------------------------------------------------

_WRITE_NORM = {
    "u8": "u8", "u16": "u16", "u32": "u32", "u64": "u64", "u128": "u128",
    "i64": "i64", "f64": "f64", "boolean": "boolean", "bytes": "bytes",
    "str": "str", "raw": "raw",
}
_READ_NORM = dict(_WRITE_NORM)
_READ_NORM["count"] = "u64"  # count() is a validated u64


def _after_template_args(tokens: list[Token], i: int) -> int:
    """Index after an optional `< ... >` template-argument list at `i`
    (`load_u64_seq<SectorId>(reader)`); `i` unchanged when none."""
    n = len(tokens)
    if i < n and tokens[i].text == "<":
        depth = 1
        j = i + 1
        while j < n and depth:
            if tokens[j].text == "<":
                depth += 1
            elif tokens[j].text == ">":
                depth -= 1
            elif tokens[j].text in (";", "{", "}"):
                return i  # comparison, not a template list
            j += 1
        if depth == 0:
            return j
    return i


def _call_sequence(model: Model, fn: FunctionDef, stream_var: str,
                   helper_prefix: str, subject: str | None = None,
                   visited: frozenset[str] = frozenset()) -> list[tuple[str, int]]:
    """Flattened source-order sequence of serialization calls in a body,
    normalized so a save body and its mirror load body produce the same
    sequence: primitive calls by wire type (count() is a validated u64),
    nested `obj.save(w)` / `obj.load(r)` as 'sub', and `save_X(...)` /
    `load_X(...)` helpers — free functions or `subject`-class methods —
    inlined to their own primitive sequence when the helper body is in the
    model (so a save-side wrapper matches a load side that spells the same
    wire reads out directly), else kept by name X."""
    io_norm = _WRITE_NORM if helper_prefix == "save_" else _READ_NORM
    sub_names = {"save", "save_state"} if helper_prefix == "save_" \
        else {"load", "load_state"}
    seq: list[tuple[str, int]] = []
    tokens = fn.body
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != ID:
            continue
        nxt = tokens[i + 1].text if i + 1 < n else ""
        if tok.text == stream_var and nxt in (".", "->") and i + 2 < n:
            method = tokens[i + 2].text
            if method in io_norm and i + 3 < n and tokens[i + 3].text == "(":
                seq.append((io_norm[method], tokens[i + 2].line))
        elif tok.text.startswith(helper_prefix) \
                and not _is_member_access(tokens, i):
            paren = _after_template_args(tokens, i + 1)
            if paren < n and tokens[paren].text == "(" \
                    and _mentions(tokens, paren, stream_var):
                seq.extend(
                    _helper_sequence(model, tok, helper_prefix, subject, visited))
        elif tok.text in sub_names and nxt == "(" and _is_member_access(tokens, i) \
                and _mentions(tokens, i + 1, stream_var):
            seq.append(("sub", tok.line))
    return seq


def _helper_sequence(model: Model, call_tok: Token, helper_prefix: str,
                     subject: str | None,
                     visited: frozenset[str]) -> list[tuple[str, int]]:
    """The normalized sequence a `save_X(...)`/`load_X(...)` helper call
    contributes, reported at the call-site line. Same-class component
    savers resolve before free functions."""
    helper = None
    if call_tok.text not in visited:
        if subject is not None:
            helper = model.body_of(subject, call_tok.text)
        if helper is None:
            helper = model.body_of(None, call_tok.text)
    if helper is not None:
        stream = _writer_param(helper) if helper_prefix == "save_" \
            else _reader_param(helper)
        if stream is not None:
            inner = _call_sequence(model, helper, stream, helper_prefix,
                                   subject, visited | {call_tok.text})
            return [(name, call_tok.line) for name, _ in inner]
    return [(call_tok.text[len(helper_prefix):], call_tok.line)]


def _mentions(tokens: list[Token], open_idx: int, name: str) -> bool:
    """`name` appears among the arguments of the call whose `(` is at
    `open_idx`."""
    if open_idx >= len(tokens) or tokens[open_idx].text != "(":
        return False
    depth = 1
    i = open_idx + 1
    while i < len(tokens) and depth:
        t = tokens[i]
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
        elif t.kind == ID and t.text == name:
            return True
        i += 1
    return False


def _rw_mismatch(model: Model) -> list[Finding]:
    findings: list[Finding] = []
    for pair in serializer_pairs(model):
        writer = _writer_param(pair.save)
        reader = _reader_param(pair.load)
        if writer is None or reader is None:
            continue
        save_seq = _call_sequence(model, pair.save, writer, "save_",
                                  pair.subject)
        load_seq = _call_sequence(model, pair.load, reader, "load_",
                                  pair.subject)
        label = (pair.subject + "::" if pair.subject else "") + pair.save.name
        for k in range(max(len(save_seq), len(load_seq))):
            s = save_seq[k] if k < len(save_seq) else None
            l = load_seq[k] if k < len(load_seq) else None
            if s is not None and l is not None and s[0] == l[0]:
                continue
            line = (s or l)[1]
            path = pair.save.path if s is not None else pair.load.path
            s_txt = s[0] if s else "<end>"
            l_txt = f"{l[0]} ({pair.load.path}:{l[1]})" if l else "<end>"
            _emit(findings, model, path, line, "snapshot-hygiene/rw-mismatch",
                  f"{label}: writer/reader call sequences diverge at step "
                  f"{k + 1}: save emits `{s_txt}`, load consumes `{l_txt}` — "
                  "the FISNAP body layout must keep the two mirror-symmetric "
                  "(annotate `// fi-lint: allow(rw-mismatch, <why>)` on the "
                  "save function for intentionally asymmetric framing)")
            break
    return findings
