import importlib.util
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gmodelc
from gmodelc.dsl import ParseFailure, _Line, _lex, _number, parse_model, serialize_model
from gmodelc.metamodel import (MemoryRole, Shape, StereotypeKind, validate_conformance)

from conftest import golden_path
from modelgen import random_model
from oracles import reference_tokenize_line


def test_inline_memory_part_carries_stereotype():
    text = """\
platform p {
  component Dev {
    memory local : hwMemory role=deviceLocal capacity=16384
  }
  component p {
    part dev : Dev
  }
}
application a {
  component a {
  }
}
"""
    model = parse_model(text)
    part = model.platform_components["Dev"].part("local")
    st = model.platform_components[part.type_ref].stereotype
    assert st.kind is StereotypeKind.MEMORY
    assert st.memory_role is MemoryRole.DEVICE_LOCAL
    assert st.capacity_bytes == 16384


def test_capacity_suffixes():
    text = MINI.replace("capacity=16384", "capacity=16K")
    model = parse_model(text)
    part = model.platform_components["Dev"].part("local")
    assert model.platform_components[part.type_ref].stereotype.capacity_bytes == 16384
    text = MINI.replace("capacity=16384", "capacity=2M")
    model = parse_model(text)
    part = model.platform_components["Dev"].part("local")
    assert model.platform_components[part.type_ref].stereotype.capacity_bytes == 2097152


def test_capacity_without_a_suffix_round_trips_as_written():
    text = MINI.replace("capacity=16384", "capacity=1000")
    assert "capacity=1000\n" in serialize_model(parse_model(text))


MINI = """\
platform p {
  component Dev {
    memory local : hwMemory role=deviceLocal capacity=16384
  }
  component p {
    part dev : Dev
  }
}
application a {
  component a {
  }
}
"""


def test_empty_input_error_position():
    with pytest.raises(ParseFailure) as exc:
        parse_model("")
    err = exc.value.errors[0]
    assert err.span.line == 1 and err.span.column == 1
    assert "'platform' or 'application'" in err.expected


def test_shaped_processor_part():
    text = """\
platform p {
  component Dev {
    processor c : hwProcessor shaped [16]
  }
  component p {
    part dev : Dev
  }
}
application a {
  component a {
  }
}
"""
    model = parse_model(text)
    part = model.platform_components["Dev"].part("c")
    assert part.shaped == Shape((16,))
    st = model.platform_components[part.type_ref].stereotype
    assert st.kind is StereotypeKind.PROCESSOR


def test_round_trip_bundled_model(cg_model):
    assert parse_model(serialize_model(cg_model)) == cg_model


def test_serialize_is_canonical_fixpoint(cg_model):
    once = serialize_model(cg_model)
    assert serialize_model(parse_model(once)) == once


def test_canonical_golden(cg_model):
    assert serialize_model(cg_model) == golden_path("cg_canonical.gmodel").read_text()


def test_error_recovery_reports_independent_errors():
    text = """\
platform p {
  component Dev {
    memory local : hwMemory
    processor c 16
  }
  component p {
    part dev : Dev
  }
}
application a {
  component a {
  }
}
"""
    with pytest.raises(ParseFailure) as exc:
        parse_model(text)
    errors = exc.value.errors
    assert len(errors) >= 2
    assert errors[0].span.line == 3   # hwMemory without role=
    assert errors[1].span.line == 4   # malformed part statement
    spans = [(e.span.line, e.span.column) for e in errors]
    assert spans == sorted(spans)


def test_comments_and_blank_lines_ignored():
    text = MINI.replace("platform p {", "# heading\n\nplatform p {  # trailing")
    model = parse_model(text)
    assert "Dev" in model.platform_components


def test_duplicate_section_rejected():
    text = MINI + "platform q {\n}\n"
    with pytest.raises(ParseFailure) as exc:
        parse_model(text)
    assert any("duplicate 'platform'" in e.found for e in exc.value.errors)


def test_missing_application_section():
    text = "platform p {\n  component p {\n  }\n}\n"
    with pytest.raises(ParseFailure) as exc:
        parse_model(text)
    assert any("'application' section" in e.expected for e in exc.value.errors)


def test_unterminated_block():
    with pytest.raises(ParseFailure) as exc:
        parse_model("platform p {\n  component p {\n")
    assert any(e.expected == "'}'" for e in exc.value.errors)


def test_bad_character_reported():
    with pytest.raises(ParseFailure) as exc:
        parse_model("platform p @ {\n}\napplication a {\n  component a {\n  }\n}\n")
    assert any(e.found == "'@'" for e in exc.value.errors)


def test_attributes_require_inline_stereotype():
    text = MINI.replace("part dev : Dev", "part dev : Dev capacity=4")
    with pytest.raises(ParseFailure):
        parse_model(text)


def test_round_trip_generated_models():
    for seed in range(40):
        model = random_model(random.Random(seed))
        assert validate_conformance(model) == [], f"seed {seed} not conformant"
        text = serialize_model(model)
        assert parse_model(text) == model, f"seed {seed} failed round-trip"
        assert serialize_model(parse_model(text)) == text


_PATH_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _benchmark_models() -> list[str]:
    """The benchmark's three generated models, of 400, 600 and 800 tasks."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [inputs.generate_model(1000 + i, f"gen{i}", tasks)
            for i, tasks in enumerate((400, 600, 800))]


def test_a_spaced_path_parses_as_the_path(cg_text):
    """A dotted path is one lexeme, but `a . b` still reads as `a.b`: every
    path of cg.gmodel or of a generated model spaced out at its dots parses
    to the same model, and the model round-trips through its canonical
    text."""
    texts = [serialize_model(random_model(random.Random(seed))) for seed in range(20)]
    for text in [cg_text] + texts + _benchmark_models():
        spaced = _PATH_RE.sub(lambda m: m[0].replace(".", " . "), text)
        assert spaced != text
        model = parse_model(text)
        assert parse_model(spaced) == model
        assert parse_model(serialize_model(model)) == model


def test_parse_is_pure(cg_text):
    assert parse_model(cg_text) == parse_model(cg_text)


def test_empty_component_serializes_to_single_block():
    model = parse_model(MINI)
    text = serialize_model(model)
    app_section = text[text.index("application a {"):]
    assert app_section.splitlines()[1:3] == ["  component a {", "  }"]


def test_sections_accepted_in_either_order():
    reordered = """\
application a {
  component a {
  }
}
platform p {
  component p {
  }
}
"""
    model = parse_model(reordered)
    assert model.platform_root == "p" and model.application_root == "a"
    # canonical form always leads with the platform section
    assert serialize_model(model).startswith("platform p {")


_TOKEN_FIELDS = ("kind", "text", "line", "col", "is_float", "value", "suffix")

# Fragments that tokenize differently depending on their neighbours: blanks
# and carriage returns, comments, illegal characters, the arrow and its
# halves, numbers with fractions, exponents and K/M suffixes, identifiers
# with digits and underscores, and dots that do or do not join them into
# a path.
_FRAGMENTS = st.sampled_from([
    " ", "  ", "\t", "\r", " \t ", "#", "# note -> x", "@", "$", "!", "?", "-", ">",
    "->", "{", "}", "[", "]", ":", "=", ",", ".", "<", "0", "7", "12", "1.5", "3.",
    ".5", "2e3", "2E-3", "4e+", "1.25e10", "16K", "2M", "1.5K", "7e2M", "K", "M",
    "e", "E", "x", "_", "a1", "port_9", "_b2_", "hwMemory", "capacity=16K",
    "a.b.c", "x -> y.z", "a . b", "a. b", "a .b", "_._", "p.q9", "x.1", "1.x", "a.b.",
    "\u00e9", "\u00a0", "\u0663",
])


def _lexer_tokens(code: str, toks: list[str], line_no: int) -> list[tuple]:
    """The lexer's lexemes of one line, with the fields the parser derives
    from them: the kind from the first character (a path that is one
    identifier is a word), the column by rescanning the line, and a
    number's value, float form and suffix."""
    line = _Line(toks, line_no, code)
    view = []
    for i, text in enumerate(toks):
        kind = ("word" if text.isidentifier() else "path" if text[0].isidentifier()
                else "num" if text[0].isdigit() else "arrow" if text == "->" else "sym")
        value, is_float, suffix = _number(text) if kind == "num" else (0.0, False, "")
        view.append((kind, text, line_no, line.span(i).column, is_float, value, suffix))
    return view


@settings(max_examples=400, deadline=None)
@example(["", "   ", "\t\r", "port x in float64 [4]  \r", "a@", "@@@ b", "x -> y # c",
          "1.5e3K", "deploy  spmv_csr\t# trailing comment\t", "until r < 1e-10", "$"], 3)
@given(st.lists(st.lists(_FRAGMENTS, max_size=12).map("".join), min_size=1, max_size=4),
       st.integers(1, 500))
def test_tokenizer_matches_reference_tokenizer(lines, first_line):
    # the lines are lexed as one text, after first_line - 1 blank lines
    errors, ref_errors = [], []
    codes, lexemes = _lex("\n" * (first_line - 1) + "\n".join(lines), errors)
    for line_no, text in enumerate(lines, start=first_line):
        ref_toks = reference_tokenize_line(text, line_no, ref_errors)
        toks = _lexer_tokens(codes[line_no - 1], lexemes[line_no - 1], line_no)
        assert toks == [tuple(getattr(t, f) for f in _TOKEN_FIELDS) for t in ref_toks], repr(text)
    assert errors == ref_errors, repr(lines)


_EDIT_FRAGMENTS = st.sampled_from([
    "@", "$", "é", "{", "}", "[", "]", "->", "-", ":", "=", ",", ".", "<", "7", "1.5",
    "16K", "1e-3M", "12abc", "x", "port", "component", "platform", "#", " ", "\t", "\r",
    "{\n", "\n}\n",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "delete", "drop line"]),
                          st.integers(0, 10**6), _EDIT_FRAGMENTS), min_size=1, max_size=3))
def test_parse_error_spans_point_at_reference_tokens(edits):
    """Every error of a mutated cg.gmodel spans the reference tokenizer's
    token at its column, with that token as the found text (or the name
    that a duplicate repeats), or a bad character, or the end of the line
    or of the input."""
    text = gmodelc.bundled_model_text()
    for op, pos, fragment in edits:
        pos %= len(text) + 1
        if op == "insert":
            text = text[:pos] + fragment + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + len(fragment):]
        else:
            lines = text.split("\n")
            del lines[pos % len(lines)]
            text = "\n".join(lines)
    try:
        parse_model(text)
        return
    except ParseFailure as exc:
        errors = exc.errors
    lines = text.split("\n")
    for err in errors:
        span = err.span
        if err.found == "end of input":
            assert span.length == 0
            assert (span.line, span.column) in ((1, 1), (len(lines), max(1, len(lines[-1]))))
            continue
        ref_errors = []
        toks = reference_tokenize_line(lines[span.line - 1], span.line, ref_errors)
        if err.expected == "a token":
            assert err in ref_errors
        elif err.found == "end of line":
            assert (span.column, span.length) == (toks[-1].col + len(toks[-1].text), 0)
        else:
            (tok,) = [t for t in toks if t.col == span.column]
            assert span.length == len(tok.text)
            assert err.found in (repr(tok.text), f"duplicate '{tok.text}' section",
                                 f"duplicate component '{tok.text}'")
