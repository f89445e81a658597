"""Line-oriented textual syntax for platform/application models.

One declaration per line, nested blocks in braces, `#` comments.  A file
holds one platform section, one application section and allocation links:

    platform machine {
      component Host {
        processor cpu : hwProcessor shaped [4] frequency=2260
        memory ram : hwMemory role=hostRam
      }
      ...
    }
    application cg {
      component Spmv {
        port x in float64 [132651]
        ...
        repeat [132651]
        deploy spmv_csr
      }
      ...
    }
    allocate data b onto device.gmem
    allocate task loop.spmv onto device.c

The section header names the root component, which must be declared in
the block.  A part whose type position holds a hardware keyword
(`memory local : hwMemory role=deviceLocal capacity=16K`) declares an
anonymous leaf component named `<Owner>_<part>` carrying the stereotype;
`serialize_model` folds such components back into the inline form.
Capacity accepts K (1024) and M (1048576) suffixes.

The lexer builds no object per token.  One regex substitution drops the
comments, and one findall per line returns its lexemes as plain strings;
a lexeme's kind is read off its first character.  A path written without
blanks (`loop.spmv.x`) is one lexeme, and a name is a path of one
identifier.  Where the grammar reads a path it also joins path lexemes
across `.` lexemes, so `loop . spmv.x` is the same path.  Only when the
lexemes do not cover every non-blank character is the text scanned again,
to report each illegal character.  A number's value is parsed where the
grammar reads one, and a lexeme's column is found again only when a
ParseError needs its span.  Names resolve through dicts: the parser's
component table while parsing; once the model is built, the metamodel's
name-indexed `Component.part`/`.port` and the `Model.context` index of
instance paths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, islice

from .metamodel import (AllocKind, AllocationLink, Component, ComponentKind, Connector,
                        DataType, Direction, FlowPort, HwStereotype, MemoryRole, Model,
                        PartInstance, Shape, StereotypeKind, UntilCondition)


@dataclass(frozen=True)
class SourceSpan:
    line: int     # 1-based
    column: int   # 1-based
    length: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseError:
    span: SourceSpan
    expected: str
    found: str

    def __str__(self) -> str:
        return f"{self.span}: expected {self.expected}, found {self.found}"


class ParseFailure(ValueError):
    """Raised by parse_model when the text does not parse; carries all errors."""

    def __init__(self, errors: list[ParseError]):
        super().__init__("; ".join(str(e) for e in errors[:5])
                         + ("" if len(errors) <= 5 else f" (+{len(errors) - 5} more)"))
        self.errors = errors


# A lexeme is a path (identifiers joined by dots, without blanks), a number
# (fraction, exponent and K/M suffix optional), the arrow or one symbol.  Its
# first character tells its kind: a path starts with a letter or `_`, and is
# an identifier when str.isidentifier accepts it whole; a number starts with
# a digit.  A `#` comment runs to the end of its line.  Every class is
# ASCII, digits included, so that the library reads the language that the
# CLI, which decodes a model file as ASCII, reads: a digit such as U+0663
# is a bad character, not part of a number.
_LEX_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*"
                     r"|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?[KM]?|->|[{}\[\]:=,.<]")
_COMMENT_RE = re.compile(r"#[^\n]*")
_BAD_RE = re.compile(r"[^ \t\r]")

_SUFFIX = {"K": 1024, "M": 1048576}
_HW_KEYWORDS = {"hwProcessor": StereotypeKind.PROCESSOR,
                "hwMemory": StereotypeKind.MEMORY,
                "hwBus": StereotypeKind.BUS}
_PART_KEYWORDS = ("part", "processor", "memory", "bus")
_DIRECTIONS = {d.value: d for d in Direction}
_TYPES = {t.value: t for t in DataType}
_ROLES = {r.value: r for r in MemoryRole}
_ALLOC_KINDS = {k.value: k for k in AllocKind}


def _lex(text: str, errors: list[ParseError]) -> tuple[list[str], list[list[str]]]:
    """Each line's code (its text before any comment) and lexemes.

    The lexemes are the plain strings of one findall per line.  When they
    do not cover every non-blank character of the code, each character that
    is in no lexeme is reported, in line and column order.
    """
    code = _COMMENT_RE.sub("", text)
    lines = code.split("\n")
    lexemes = list(map(_LEX_RE.findall, lines))
    if sum(map(len, chain.from_iterable(lexemes))) != len(code) - sum(map(code.count, " \t\r\n")):
        for no, line in enumerate(lines, start=1):
            masked = _LEX_RE.sub(lambda m: " " * len(m[0]), line)
            errors.extend(ParseError(SourceSpan(no, m.start() + 1, 1), "a token", repr(m[0]))
                          for m in _BAD_RE.finditer(masked))
    return lines, lexemes


def _number(lexeme: str) -> tuple[float, bool, str]:
    """A number lexeme's value, whether it is written as a float, and its suffix."""
    suffix = lexeme[-1] if lexeme[-1] in "KM" else ""
    body = lexeme[:-1] if suffix else lexeme
    return float(body), "." in body or "e" in body or "E" in body, suffix


class _StmtError(Exception):
    def __init__(self, error: ParseError):
        self.error = error


class _Line:
    """Cursor over one line's lexemes.  A lexeme's column is found again, by
    rescanning the code, only when an error needs its span."""

    __slots__ = ("toks", "i", "line_no", "code")

    def __init__(self, toks: list[str], line_no: int, code: str):
        self.toks = toks
        self.i = 0
        self.line_no = line_no
        self.code = code

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def span(self, i: int) -> SourceSpan:
        m = next(islice(_LEX_RE.finditer(self.code), i, None))
        return SourceSpan(self.line_no, m.start() + 1, len(m[0]))

    def error(self, i: int, expected: str, found: str | None = None) -> _StmtError:
        """The error at lexeme i; found defaults to the lexeme."""
        return _StmtError(ParseError(self.span(i), expected,
                                     repr(self.toks[i]) if found is None else found))

    def fail(self, expected: str):
        if self.i < len(self.toks):
            raise self.error(self.i, expected)
        last = self.span(len(self.toks) - 1)
        raise _StmtError(ParseError(SourceSpan(self.line_no, last.column + last.length, 0),
                                    expected, "end of line"))

    def take(self, text: str):
        i = self.i
        if i < len(self.toks) and self.toks[i] == text:
            self.i = i + 1
        else:
            self.fail(f"'{text}'")

    def word(self, expected: str = "an identifier") -> str:
        i = self.i
        if i < len(self.toks) and self.toks[i].isidentifier():
            self.i = i + 1
            return self.toks[i]
        self.fail(expected)

    def try_sym(self, text: str) -> bool:
        if self.i < len(self.toks) and self.toks[self.i] == text:
            self.i += 1
            return True
        return False

    def end(self):
        if self.i < len(self.toks):
            raise self.error(self.i, "end of line")

    def number(self, expected: str) -> tuple[float, bool, str]:
        tok = self.peek()
        if tok is None or not tok[0].isdigit():
            self.fail(expected)
        self.i += 1
        return _number(tok)

    def int_value(self, expected: str, allow_suffix: bool = False) -> int:
        value, is_float, suffix = self.number(expected)
        if is_float or (suffix and not allow_suffix):
            raise self.error(self.i - 1, expected)
        return int(value) * _SUFFIX.get(suffix, 1)

    def float_value(self, expected: str) -> float:
        value, _, suffix = self.number(expected)
        if suffix:
            raise self.error(self.i - 1, expected)
        return value

    def shape(self) -> Shape:
        self.take("[")
        dims = [self.int_value("a dimension")]
        while self.try_sym(","):
            dims.append(self.int_value("a dimension"))
        self.take("]")
        return Shape(tuple(dims))

    def path(self) -> str:
        """A path lexeme, or several joined by '.' lexemes, returned joined:
        `a.b`, `a . b` and `a.b .c` are one path."""
        toks, first = self.toks, self.i
        i, n = first, len(toks)
        while i < n and toks[i][0].isidentifier():
            if i + 1 == n or toks[i + 1] != ".":
                self.i = i + 1
                return toks[i] if i == first else "".join(toks[first:i + 1])
            i += 2
        self.i = i
        self.fail("a path" if i == first else "a path segment")


class _Parser:
    def __init__(self, text: str):
        self.errors: list[ParseError] = []
        codes, lexemes = _lex(text, self.errors)
        self.lines = [_Line(toks, no, code)
                      for no, (code, toks) in enumerate(zip(codes, lexemes), start=1) if toks]
        # every statement loop draws from this one iterator over the lines
        self.stream = iter(self.lines)
        self.eof_span = SourceSpan(len(codes), max(1, len(text) - text.rfind("\n") - 1), 0)
        self.sections: dict[str, tuple[str, dict[str, Component]]] = {}
        self.allocations: list[AllocationLink] = []

    def _skip_block(self, line: _Line):
        """After a failed line that opened a block, skip to its closing brace."""
        depth = line.toks.count("{") - line.toks.count("}")
        while depth > 0:
            nxt = next(self.stream, None)
            if nxt is None:
                return
            depth += nxt.toks.count("{") - nxt.toks.count("}")

    def _recover(self, line: _Line, err: _StmtError):
        self.errors.append(err.error)
        if "{" in line.toks:
            self._skip_block(line)

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Model:
        if not self.lines and not self.errors:
            self.errors.append(ParseError(SourceSpan(1, 1, 0),
                                          "'platform' or 'application'", "end of input"))
        for line in self.stream:
            try:
                head = line.toks[0]
                if head in ("platform", "application"):
                    self._section(line, head)
                elif head == "allocate":
                    self._allocation(line)
                else:
                    line.fail("'platform', 'application' or 'allocate'")
            except _StmtError as err:
                self._recover(line, err)
        for section in ("platform", "application"):
            if section not in self.sections:
                self.errors.append(ParseError(self.eof_span, f"a '{section}' section",
                                              "end of input"))
        if self.errors:
            self.errors.sort(key=lambda e: (e.span.line, e.span.column))
            raise ParseFailure(self.errors)
        plat_root, plat_comps = self.sections["platform"]
        app_root, app_comps = self.sections["application"]
        return Model(platform_components=plat_comps, application_components=app_comps,
                     platform_root=plat_root, application_root=app_root,
                     allocations=tuple(self.allocations))

    def _section(self, line: _Line, keyword: str):
        line.i = 1
        if keyword in self.sections:
            raise line.error(0, "a single section per kind", f"duplicate '{keyword}' section")
        root = line.word("the root component name")
        line.take("{")
        line.end()
        kind = ComponentKind.PLATFORM if keyword == "platform" else ComponentKind.APPLICATION
        comps: dict[str, Component] = {}
        self.sections[keyword] = (root, comps)
        for body in self.stream:
            if body.try_sym("}"):
                try:
                    body.end()
                except _StmtError as err:
                    self.errors.append(err.error)
                return
            try:
                if body.toks[0] != "component":
                    body.fail("'component' or '}'")
                self._component(body, kind, comps)
            except _StmtError as err:
                self._recover(body, err)
        self.errors.append(ParseError(self.eof_span, "'}'", "end of input"))

    def _stereo_attrs(self, line: _Line, kind: StereotypeKind, kw_at: int,
                      allow_shaped: bool) -> tuple[HwStereotype, Shape | None]:
        """The attributes after the stereotype keyword, lexeme kw_at."""
        role = None
        capacity = None
        frequency = None
        shaped = None
        while True:
            tok = line.peek()
            if tok is None or tok == "{":
                break
            if not tok.isidentifier():
                line.fail("an attribute")
            if tok == "role":
                line.i += 1
                line.take("=")
                rtok = line.word("a memory role")
                if rtok not in _ROLES:
                    raise line.error(line.i - 1, "a memory role "
                                     "(hostRam|deviceGlobal|deviceConstant|deviceLocal|devicePrivate)")
                role = _ROLES[rtok]
            elif tok == "capacity":
                line.i += 1
                line.take("=")
                capacity = line.int_value("a byte count", allow_suffix=True)
            elif tok == "frequency":
                line.i += 1
                line.take("=")
                frequency = line.int_value("a frequency in MHz")
            elif tok == "shaped" and allow_shaped:
                line.i += 1
                shaped = line.shape()
            else:
                line.fail("an attribute (role/capacity/frequency"
                          + ("/shaped)" if allow_shaped else ")"))
        if kind is StereotypeKind.MEMORY and role is None:
            raise line.error(kw_at, "role= on an hwMemory stereotype")
        return HwStereotype(kind, memory_role=role, capacity_bytes=capacity,
                            frequency_mhz=frequency), shaped

    def _component(self, line: _Line, kind: ComponentKind, comps: dict[str, Component]):
        line.i = 1      # past `component`
        name = line.word("a component name")
        stereotype = None
        if line.try_sym(":"):
            kw = line.word("a stereotype (hwProcessor|hwMemory|hwBus)")
            if kw not in _HW_KEYWORDS:
                raise line.error(line.i - 1, "hwProcessor, hwMemory or hwBus")
            stereotype, _ = self._stereo_attrs(line, _HW_KEYWORDS[kw], line.i - 1, False)
        line.take("{")
        line.end()
        if name in comps:
            self.errors.append(line.error(1, "a unique component name",
                                          f"duplicate component '{name}'").error)
            self._skip_block(line)
            return
        ports: list[FlowPort] = []
        parts: list[PartInstance] = []
        connectors: list[Connector] = []
        repetition: Shape | None = None
        until: UntilCondition | None = None
        deploy: str | None = None
        # reserve the slot so inline parts can synthesize against a stable dict order
        comps[name] = Component(name, kind)
        for body in self.stream:
            if body.try_sym("}"):
                try:
                    body.end()
                except _StmtError as err:
                    self.errors.append(err.error)
                break
            try:
                head = body.toks[0]     # the most frequent statement first
                if head == "connect":
                    body.i += 1
                    src = body.path()
                    body.take("->")
                    dst = body.path()
                    body.end()
                    connectors.append(Connector(src, dst))
                elif not head.isidentifier():
                    body.fail("a component statement")
                elif head in _PART_KEYWORDS:
                    part = self._part(body, name, kind, comps)
                    if part is not None:
                        parts.append(part)
                elif head == "port":
                    ports.append(self._port(body))
                elif head == "repeat":
                    body.i += 1
                    repetition = body.shape()
                    body.end()
                elif head == "until":
                    body.i += 1
                    port = body.word("a port name")
                    body.take("<")
                    tol = body.float_value("a tolerance")
                    body.end()
                    until = UntilCondition(port, tol)
                elif head == "deploy":
                    body.i += 1
                    deploy = body.word("an intrinsic name")
                    body.end()
                else:
                    body.fail("a component statement "
                              "(port/part/processor/memory/bus/connect/repeat/until/deploy)")
            except _StmtError as err:
                self._recover(body, err)
        else:
            self.errors.append(ParseError(self.eof_span, "'}'", "end of input"))
        comps[name] = Component(
            name=name, kind=kind, ports=tuple(ports), parts=tuple(parts),
            connectors=tuple(connectors), stereotype=stereotype,
            repetition_space=repetition, elementary_op=deploy, until=until)

    def _port(self, line: _Line) -> FlowPort:
        line.i = 1      # past `port`
        name = line.word("a port name")
        d = line.word("a direction (in|out|inout)")
        if d not in _DIRECTIONS:
            raise line.error(line.i - 1, "in, out or inout")
        t = line.word("a data type")
        if t not in _TYPES:
            raise line.error(line.i - 1, "float32, float64, int32 or int64")
        shape = line.shape()
        line.end()
        return FlowPort(name, _DIRECTIONS[d], shape, _TYPES[t])

    def _part(self, line: _Line, owner: str, kind: ComponentKind,
              comps: dict[str, Component]) -> PartInstance | None:
        line.i = 1      # past the part keyword
        name = line.word("a part name")
        line.take(":")
        type_ref = line.word("a component type or hardware stereotype")
        if type_ref in _HW_KEYWORDS:
            stereotype, shaped = self._stereo_attrs(
                line, _HW_KEYWORDS[type_ref], line.i - 1, True)
            line.end()
            synth_name = f"{owner}_{name}"
            if synth_name in comps:
                raise line.error(1, "a part name not colliding with component "
                                 f"'{synth_name}'")
            comps[synth_name] = Component(synth_name, kind, stereotype=stereotype)
            return PartInstance(name, synth_name, shaped=shaped)
        shaped = None
        if line.peek() == "shaped":
            line.i += 1
            shaped = line.shape()
        line.end()
        return PartInstance(name, type_ref, shaped=shaped)

    def _allocation(self, line: _Line):
        line.i = 1      # past `allocate`
        kind = _ALLOC_KINDS.get(line.word("'data' or 'task'"))
        if kind is None:
            raise line.error(1, "'data' or 'task'")
        src = line.path()
        line.take("onto")
        dst = line.path()
        line.end()
        self.allocations.append(AllocationLink(kind, src, dst))


def parse_model(text: str) -> Model:
    """Parse model text; raises ParseFailure carrying every recovered error."""
    return _Parser(text).parse()


# -- serialization ----------------------------------------------------------


def _format_capacity(value: int) -> str:
    for suffix, mult in (("M", 1048576), ("K", 1024)):
        if value % mult == 0:
            return f"{value // mult}{suffix}"
    return str(value)


def _stereo_text(st: HwStereotype, shaped: Shape | None = None) -> str:
    """A stereotype's attributes in canonical order; an inline hardware
    part's shape, when given, follows the role."""
    parts = [st.kind.value]
    if st.memory_role is not None:
        parts.append(f"role={st.memory_role.value}")
    if shaped is not None:
        parts.append(f"shaped {shaped}")
    if st.frequency_mhz is not None:
        parts.append(f"frequency={st.frequency_mhz}")
    if st.capacity_bytes is not None:
        parts.append(f"capacity={_format_capacity(st.capacity_bytes)}")
    return " ".join(parts)


def _part_keyword(comp: Component | None) -> str:
    if comp is not None and comp.stereotype is not None:
        return {StereotypeKind.PROCESSOR: "processor",
                StereotypeKind.MEMORY: "memory",
                StereotypeKind.BUS: "bus"}[comp.stereotype.kind]
    return "part"


def _inline_parts(comps: dict[str, Component]) -> dict[str, str]:
    """Map synthesizable component names to the part path that folds them inline."""
    refs: dict[str, list[tuple[str, str]]] = {}
    for comp in comps.values():
        for part in comp.parts:
            refs.setdefault(part.type_ref, []).append((comp.name, part.name))
    inline: dict[str, str] = {}
    for name, comp in comps.items():
        users = refs.get(name, [])
        if (len(users) == 1 and comp.stereotype is not None
                and not comp.ports and not comp.parts and not comp.connectors
                and comp.repetition_space is None and comp.elementary_op is None
                and comp.until is None and name == f"{users[0][0]}_{users[0][1]}"):
            inline[name] = f"{users[0][0]}.{users[0][1]}"
    return inline


def _emit_component(out: list[str], comp: Component, comps: dict[str, Component],
                    inline: dict[str, str]):
    header = f"  component {comp.name}"
    if comp.stereotype is not None:
        header += f" : {_stereo_text(comp.stereotype)}"
    out.append(header + " {")
    for port in comp.ports:
        out.append(f"    port {port.name} {port.direction.value} "
                   f"{port.data_type.value} {port.shape}")
    for part in comp.parts:
        target = comps.get(part.type_ref)
        if inline.get(part.type_ref) == f"{comp.name}.{part.name}":
            text = (f"    {_part_keyword(target)} {part.name} : "
                    f"{_stereo_text(target.stereotype, part.shaped)}")
        else:
            text = f"    {_part_keyword(target)} {part.name} : {part.type_ref}"
            if part.shaped is not None:
                text += f" shaped {part.shaped}"
        out.append(text)
    for conn in comp.connectors:
        out.append(f"    connect {conn.source} -> {conn.target}")
    if comp.repetition_space is not None:
        out.append(f"    repeat {comp.repetition_space}")
    if comp.until is not None:
        out.append(f"    until {comp.until.port} < {comp.until.tolerance!r}")
    if comp.elementary_op is not None:
        out.append(f"    deploy {comp.elementary_op}")
    out.append("  }")


def serialize_model(model: Model) -> str:
    """Canonical text for a model: parse(serialize(m)) is structurally equal to m.

    Canonical form uses two-space indentation, declaration order, inline
    hardware parts where the naming pattern allows, and K/M capacity
    suffixes for exact multiples.
    """
    out: list[str] = []
    for keyword, comps, root in (("platform", model.platform_components, model.platform_root),
                                 ("application", model.application_components,
                                  model.application_root)):
        out.append(f"{keyword} {root} {{")
        inline = _inline_parts(comps)
        for comp in comps.values():
            if comp.name in inline:
                continue
            _emit_component(out, comp, comps, inline)
        out.append("}")
    for link in model.allocations:
        out.append(f"allocate {link.kind.value} {link.source_path} onto {link.target_path}")
    return "\n".join(out) + "\n"
