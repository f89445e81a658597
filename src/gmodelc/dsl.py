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

Each line is tokenized in one pass of a single regex: every match is a
token, a comment or one illegal character.  Names resolve through dicts:
the parser's component table while parsing, and the metamodel's
name-indexed `Component.part`/`.port` once the model is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


# One match per token or per error: leading blanks are absorbed, a `#`
# comment runs to the end of the line, and `bad` takes one character that
# starts no token.  `bad` excludes blanks so that a line's trailing blanks
# match nothing instead of backtracking into an error.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?[KM]?)"
    r"|(?P<arrow>->)"
    r"|(?P<sym>[{}\[\]:=,.<])"
    r"|(?P<comment>#.*)"
    r"|(?P<bad>[^ \t\r]))"
)

_SUFFIX = {"K": 1024, "M": 1048576}
_HW_KEYWORDS = {"hwProcessor": StereotypeKind.PROCESSOR,
                "hwMemory": StereotypeKind.MEMORY,
                "hwBus": StereotypeKind.BUS}
_PART_KEYWORDS = ("part", "processor", "memory", "bus")
_DIRECTIONS = {d.value: d for d in Direction}
_TYPES = {t.value: t for t in DataType}
_ROLES = {r.value: r for r in MemoryRole}


@dataclass(slots=True)
class _Tok:
    kind: str   # word | num | arrow | sym
    text: str
    line: int
    col: int
    is_float: bool = False
    value: float = 0.0
    suffix: str = ""

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, len(self.text))


class _StmtError(Exception):
    def __init__(self, error: ParseError):
        self.error = error


def _tokenize_line(text: str, line_no: int, errors: list[ParseError]) -> list[_Tok]:
    toks: list[_Tok] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "comment":
            continue
        lexeme = m[kind]
        col = m.start(kind) + 1
        if kind == "bad":
            errors.append(ParseError(SourceSpan(line_no, col, 1), "a token", repr(lexeme)))
        elif kind == "num":
            suffix = lexeme[-1] if lexeme[-1] in "KM" else ""
            body = lexeme[:-1] if suffix else lexeme
            is_float = "." in body or "e" in body or "E" in body
            toks.append(_Tok("num", lexeme, line_no, col, is_float, float(body), suffix))
        else:
            toks.append(_Tok(kind, lexeme, line_no, col))
    return toks


class _Line:
    """Cursor over one statement's tokens."""

    def __init__(self, toks: list[_Tok], line_no: int, line_len: int):
        self.toks = toks
        self.i = 0
        self.line_no = line_no
        self.line_len = line_len

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _eol_span(self) -> SourceSpan:
        if self.toks:
            last = self.toks[-1]
            return SourceSpan(self.line_no, last.col + len(last.text), 0)
        return SourceSpan(self.line_no, 1, 0)

    def fail(self, expected: str):
        tok = self.peek()
        if tok is None:
            raise _StmtError(ParseError(self._eol_span(), expected, "end of line"))
        raise _StmtError(ParseError(tok.span, expected, repr(tok.text)))

    def take(self, expected: str, kind: str, text: str | None = None) -> _Tok:
        tok = self.peek()
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            self.fail(expected)
        self.i += 1
        return tok

    def take_word(self, expected: str = "an identifier") -> _Tok:
        return self.take(expected, "word")

    def try_sym(self, text: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.kind == "sym" and tok.text == text:
            self.i += 1
            return True
        return False

    def end(self):
        tok = self.peek()
        if tok is not None:
            raise _StmtError(ParseError(tok.span, "end of line", repr(tok.text)))

    def int_value(self, expected: str, allow_suffix: bool = False) -> int:
        tok = self.take(expected, "num")
        if tok.is_float or (tok.suffix and not allow_suffix):
            raise _StmtError(ParseError(tok.span, expected, repr(tok.text)))
        return int(tok.value) * _SUFFIX.get(tok.suffix, 1)

    def float_value(self, expected: str) -> float:
        tok = self.take(expected, "num")
        if tok.suffix:
            raise _StmtError(ParseError(tok.span, expected, repr(tok.text)))
        return tok.value

    def shape(self) -> Shape:
        self.take("'['", "sym", "[")
        dims = [self.int_value("a dimension")]
        while self.try_sym(","):
            dims.append(self.int_value("a dimension"))
        self.take("']'", "sym", "]")
        return Shape(tuple(dims))

    def path(self) -> str:
        segs = [self.take_word("a path").text]
        while self.try_sym("."):
            segs.append(self.take_word("a path segment").text)
        return ".".join(segs)


class _Parser:
    def __init__(self, text: str):
        self.errors: list[ParseError] = []
        self.raw_lines = text.split("\n")
        self.lines: list[_Line] = []
        for no, raw in enumerate(self.raw_lines, start=1):
            toks = _tokenize_line(raw, no, self.errors)
            if toks:
                self.lines.append(_Line(toks, no, len(raw)))
        self.pos = 0
        self.sections: dict[str, tuple[str, dict[str, Component]]] = {}
        self.allocations: list[AllocationLink] = []

    # -- line stream -------------------------------------------------------

    def _next_line(self) -> _Line | None:
        if self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            return line
        return None

    def _eof_span(self) -> SourceSpan:
        return SourceSpan(len(self.raw_lines), max(1, len(self.raw_lines[-1])), 0)

    def _record(self, err: ParseError):
        self.errors.append(err)

    def _skip_block(self, line: _Line):
        """After a failed line that opened a block, skip to its closing brace."""
        depth = sum(1 for t in line.toks if t.text == "{") \
            - sum(1 for t in line.toks if t.text == "}")
        while depth > 0:
            nxt = self._next_line()
            if nxt is None:
                return
            depth += sum(1 for t in nxt.toks if t.text == "{")
            depth -= sum(1 for t in nxt.toks if t.text == "}")

    def _recover(self, line: _Line, err: _StmtError):
        self._record(err.error)
        if any(t.text == "{" for t in line.toks):
            self._skip_block(line)

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Model:
        if not self.lines and not self.errors:
            self._record(ParseError(SourceSpan(1, 1, 0),
                                    "'platform' or 'application'", "end of input"))
        while True:
            line = self._next_line()
            if line is None:
                break
            try:
                head = line.peek()
                if head is None or head.kind != "word":
                    line.fail("'platform', 'application' or 'allocate'")
                if head.text in ("platform", "application"):
                    self._section(line, head.text)
                elif head.text == "allocate":
                    self._allocation(line)
                else:
                    line.fail("'platform', 'application' or 'allocate'")
            except _StmtError as err:
                self._recover(line, err)
        for section in ("platform", "application"):
            if section not in self.sections:
                self._record(ParseError(self._eof_span(), f"a '{section}' section", "end of input"))
        if self.errors:
            self.errors.sort(key=lambda e: (e.span.line, e.span.column))
            raise ParseFailure(self.errors)
        plat_root, plat_comps = self.sections["platform"]
        app_root, app_comps = self.sections["application"]
        return Model(platform_components=plat_comps, application_components=app_comps,
                     platform_root=plat_root, application_root=app_root,
                     allocations=tuple(self.allocations))

    def _section(self, line: _Line, keyword: str):
        start = line.take("section keyword", "word")
        if keyword in self.sections:
            raise _StmtError(ParseError(start.span, "a single section per kind",
                                        f"duplicate '{keyword}' section"))
        root = line.take_word("the root component name").text
        line.take("'{'", "sym", "{")
        line.end()
        kind = ComponentKind.PLATFORM if keyword == "platform" else ComponentKind.APPLICATION
        comps: dict[str, Component] = {}
        self.sections[keyword] = (root, comps)
        while True:
            body = self._next_line()
            if body is None:
                self._record(ParseError(self._eof_span(), "'}'", "end of input"))
                return
            if body.try_sym("}"):
                try:
                    body.end()
                except _StmtError as err:
                    self._record(err.error)
                return
            try:
                head = body.peek()
                if head is None or head.kind != "word" or head.text != "component":
                    body.fail("'component' or '}'")
                self._component(body, kind, comps)
            except _StmtError as err:
                self._recover(body, err)

    def _stereo_attrs(self, line: _Line, kind: StereotypeKind, kw_tok: _Tok,
                      allow_shaped: bool) -> tuple[HwStereotype, Shape | None]:
        role = None
        capacity = None
        frequency = None
        shaped = None
        while True:
            tok = line.peek()
            if tok is None or tok.text in ("{",):
                break
            if tok.kind != "word":
                line.fail("an attribute")
            if tok.text == "role":
                line.i += 1
                line.take("'='", "sym", "=")
                rtok = line.take_word("a memory role")
                if rtok.text not in _ROLES:
                    raise _StmtError(ParseError(rtok.span, "a memory role "
                                                "(hostRam|deviceGlobal|deviceConstant|deviceLocal|devicePrivate)",
                                                repr(rtok.text)))
                role = _ROLES[rtok.text]
            elif tok.text == "capacity":
                line.i += 1
                line.take("'='", "sym", "=")
                capacity = line.int_value("a byte count", allow_suffix=True)
            elif tok.text == "frequency":
                line.i += 1
                line.take("'='", "sym", "=")
                frequency = line.int_value("a frequency in MHz")
            elif tok.text == "shaped" and allow_shaped:
                line.i += 1
                shaped = line.shape()
            else:
                line.fail("an attribute (role/capacity/frequency"
                          + ("/shaped)" if allow_shaped else ")"))
        if kind is StereotypeKind.MEMORY and role is None:
            raise _StmtError(ParseError(kw_tok.span, "role= on an hwMemory stereotype",
                                        repr(kw_tok.text)))
        return HwStereotype(kind, memory_role=role, capacity_bytes=capacity,
                            frequency_mhz=frequency), shaped

    def _component(self, line: _Line, kind: ComponentKind, comps: dict[str, Component]):
        line.take("'component'", "word", "component")
        name_tok = line.take_word("a component name")
        stereotype = None
        if line.try_sym(":"):
            kw = line.take_word("a stereotype (hwProcessor|hwMemory|hwBus)")
            if kw.text not in _HW_KEYWORDS:
                raise _StmtError(ParseError(kw.span, "hwProcessor, hwMemory or hwBus",
                                            repr(kw.text)))
            stereotype, _ = self._stereo_attrs(line, _HW_KEYWORDS[kw.text], kw, False)
        line.take("'{'", "sym", "{")
        line.end()
        if name_tok.text in comps:
            self._record(ParseError(name_tok.span, "a unique component name",
                                    f"duplicate component '{name_tok.text}'"))
            self._skip_block(line)
            return
        ports: list[FlowPort] = []
        parts: list[PartInstance] = []
        connectors: list[Connector] = []
        repetition: Shape | None = None
        until: UntilCondition | None = None
        deploy: str | None = None
        # reserve the slot so inline parts can synthesize against a stable dict order
        comps[name_tok.text] = Component(name_tok.text, kind)
        while True:
            body = self._next_line()
            if body is None:
                self._record(ParseError(self._eof_span(), "'}'", "end of input"))
                break
            if body.try_sym("}"):
                try:
                    body.end()
                except _StmtError as err:
                    self._record(err.error)
                break
            try:
                head = body.peek()
                if head is None or head.kind != "word":
                    body.fail("a component statement")
                if head.text == "port":
                    ports.append(self._port(body))
                elif head.text in _PART_KEYWORDS:
                    part = self._part(body, name_tok.text, kind, comps)
                    if part is not None:
                        parts.append(part)
                elif head.text == "connect":
                    body.i += 1
                    src = body.path()
                    body.take("'->'", "arrow")
                    dst = body.path()
                    body.end()
                    connectors.append(Connector(src, dst))
                elif head.text == "repeat":
                    body.i += 1
                    repetition = body.shape()
                    body.end()
                elif head.text == "until":
                    body.i += 1
                    port = body.take_word("a port name").text
                    body.take("'<'", "sym", "<")
                    tol = body.float_value("a tolerance")
                    body.end()
                    until = UntilCondition(port, tol)
                elif head.text == "deploy":
                    body.i += 1
                    deploy = body.take_word("an intrinsic name").text
                    body.end()
                else:
                    body.fail("a component statement "
                              "(port/part/processor/memory/bus/connect/repeat/until/deploy)")
            except _StmtError as err:
                self._recover(body, err)
        comps[name_tok.text] = Component(
            name=name_tok.text, kind=kind, ports=tuple(ports), parts=tuple(parts),
            connectors=tuple(connectors), stereotype=stereotype,
            repetition_space=repetition, elementary_op=deploy, until=until)

    def _port(self, line: _Line) -> FlowPort:
        line.take("'port'", "word", "port")
        name = line.take_word("a port name").text
        d = line.take_word("a direction (in|out|inout)")
        if d.text not in _DIRECTIONS:
            raise _StmtError(ParseError(d.span, "in, out or inout", repr(d.text)))
        t = line.take_word("a data type")
        if t.text not in _TYPES:
            raise _StmtError(ParseError(t.span, "float32, float64, int32 or int64",
                                        repr(t.text)))
        shape = line.shape()
        line.end()
        return FlowPort(name, _DIRECTIONS[d.text], shape, _TYPES[t.text])

    def _part(self, line: _Line, owner: str, kind: ComponentKind,
              comps: dict[str, Component]) -> PartInstance | None:
        line.take("a part keyword", "word")
        name_tok = line.take_word("a part name")
        line.take("':'", "sym", ":")
        type_tok = line.take_word("a component type or hardware stereotype")
        if type_tok.text in _HW_KEYWORDS:
            stereotype, shaped = self._stereo_attrs(
                line, _HW_KEYWORDS[type_tok.text], type_tok, True)
            line.end()
            synth_name = f"{owner}_{name_tok.text}"
            if synth_name in comps:
                raise _StmtError(ParseError(
                    name_tok.span, "a part name not colliding with component "
                    f"'{synth_name}'", repr(name_tok.text)))
            comps[synth_name] = Component(synth_name, kind, stereotype=stereotype)
            return PartInstance(name_tok.text, synth_name, shaped=shaped)
        shaped = None
        if line.peek() is not None and line.peek().text == "shaped":
            line.i += 1
            shaped = line.shape()
        line.end()
        return PartInstance(name_tok.text, type_tok.text, shaped=shaped)

    def _allocation(self, line: _Line):
        line.take("'allocate'", "word", "allocate")
        k = line.take_word("'data' or 'task'")
        if k.text not in ("data", "task"):
            raise _StmtError(ParseError(k.span, "'data' or 'task'", repr(k.text)))
        src = line.path()
        line.take("'onto'", "word", "onto")
        dst = line.path()
        line.end()
        self.allocations.append(AllocationLink(AllocKind(k.text), src, dst))


def parse_model(text: str) -> Model:
    """Parse model text; raises ParseFailure carrying every recovered error."""
    return _Parser(text).parse()


# -- serialization ----------------------------------------------------------


def _format_capacity(value: int) -> str:
    for suffix, mult in (("M", 1048576), ("K", 1024)):
        if value % mult == 0:
            return f"{value // mult}{suffix}"
    return str(value)


def _stereo_text(st: HwStereotype) -> str:
    parts = [st.kind.value]
    if st.memory_role is not None:
        parts.append(f"role={st.memory_role.value}")
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
        if part.type_ref in inline and inline[part.type_ref] == f"{comp.name}.{part.name}":
            st = target.stereotype
            text = f"    {_part_keyword(target)} {part.name} : {st.kind.value}"
            if st.memory_role is not None:
                text += f" role={st.memory_role.value}"
            if part.shaped is not None:
                text += f" shaped {part.shaped}"
            if st.frequency_mhz is not None:
                text += f" frequency={st.frequency_mhz}"
            if st.capacity_bytes is not None:
                text += f" capacity={_format_capacity(st.capacity_bytes)}"
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
