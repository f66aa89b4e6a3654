"""Tests for spec-file loading (JSON + the YAML subset)."""

import pytest

from repro.api import (ExperimentSpec, SpecError, dump_spec, load_spec,
                       parse_simple_yaml)
from repro.api.loader import load_spec_dict


# -- the YAML subset ----------------------------------------------------------

def test_yaml_subset_parses_nested_mappings_and_lists():
    parsed = parse_simple_yaml("""\
# experiment header comment
kind: sweep
name: 'quoted name'   # trailing comment
pipelines:
  - MP3
  - FLAC
run:
  threads: 16
  epochs: 2
  compression: null
  shuffle_buffer: 0
serve:
  policy: cache-aware
  tie_break: arrival
tune:
  threads: [4, 8, 16]
  screen_keep: 0.5
flag: true
other: ~
""")
    assert parsed == {
        "kind": "sweep",
        "name": "quoted name",
        "pipelines": ["MP3", "FLAC"],
        "run": {"threads": 16, "epochs": 2, "compression": None,
                "shuffle_buffer": 0},
        "serve": {"policy": "cache-aware", "tie_break": "arrival"},
        "tune": {"threads": [4, 8, 16], "screen_keep": 0.5},
        "flag": True,
        "other": None,
    }


def test_yaml_subset_scalar_types():
    parsed = parse_simple_yaml(
        "a: -3\nb: 2.5\nc: false\nd: \"x # not a comment\"\ne: bare-word\n")
    assert parsed == {"a": -3, "b": 2.5, "c": False,
                      "d": "x # not a comment", "e": "bare-word"}


def test_yaml_block_list_at_key_indent_is_standard_yaml():
    parsed = parse_simple_yaml(
        "kind: sweep\npipelines:\n- MP3\n- FLAC\nseed: 2\n")
    assert parsed == {"kind": "sweep", "pipelines": ["MP3", "FLAC"],
                      "seed": 2}


def test_yaml_inline_list_respects_quoted_commas():
    parsed = parse_simple_yaml('x: ["a,b", c, \'d,e\']\n')
    assert parsed == {"x": ["a,b", "c", "d,e"]}


def test_yaml_inline_list_unterminated_quote_is_rejected():
    with pytest.raises(SpecError, match="unterminated quote"):
        parse_simple_yaml('x: ["a,b, c]\n')


def test_yaml_inline_list_trailing_comma_and_empty_elements():
    assert parse_simple_yaml("x: [1, 2,]") == {"x": [1, 2]}
    with pytest.raises(SpecError, match="empty element"):
        parse_simple_yaml("x: [1, , 2]")


def test_yaml_inline_list_apostrophe_in_bare_word_is_plain_text():
    """A quote only opens an element-initial quoted span; apostrophes
    inside bare words never swallow list separators."""
    assert parse_simple_yaml("x: [don't, won't]") \
        == {"x": ["don't", "won't"]}


def test_yaml_comment_after_bare_apostrophe_word_is_stripped():
    assert parse_simple_yaml("name: it's fine # note") \
        == {"name": "it's fine"}


def test_yaml_inline_list_inside_block_list_is_rejected():
    with pytest.raises(SpecError, match="line 2.*unsupported"):
        parse_simple_yaml("trainers:\n  - [1, 2]\n")


@pytest.mark.parametrize("text,fragment", [
    ("a:\n\tb: 1", "tabs are not allowed"),
    ("a: 1\n  b: 2", "unexpected indentation"),
    ("a: 1\na: 2", "duplicate key"),
    ("just a line", "expected 'key: value'"),
    ("a: &anchor", "unsupported YAML syntax"),
    ("a: {flow: map}", "unsupported YAML syntax"),
])
def test_yaml_subset_rejects_unsupported_syntax(text, fragment):
    with pytest.raises(SpecError, match=fragment):
        parse_simple_yaml(text)


def test_yaml_line_numbers_in_errors():
    with pytest.raises(SpecError, match="line 3"):
        parse_simple_yaml("a: 1\nb: 2\nboom\n")


# -- file loading -------------------------------------------------------------

def test_load_json_spec(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text('{"kind": "profile", "pipelines": ["MP3"]}')
    spec = load_spec(path)
    assert spec.kind == "profile"
    assert spec.pipelines == ("MP3",)


def test_load_yaml_spec(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("kind: serve\nseed: 3\nserve:\n  tenants: 4\n")
    spec = load_spec(path)
    assert spec.kind == "serve"
    assert spec.seed == 3
    assert spec.serve.tenants == 4


def test_dump_then_load_is_identity(tmp_path):
    spec = ExperimentSpec(kind="diagnose", pipelines=("FLAC",), seed=2)
    path = tmp_path / "exp.json"
    dump_spec(spec, path)
    assert load_spec(path) == spec


@pytest.mark.parametrize("name,content,fragment", [
    ("missing.json", None, "spec file not found"),
    ("bad.json", "{not json", "invalid JSON"),
    ("bad.txt", "kind: sweep", "must end in .json"),
    ("list.json", '[1, 2]', "top level must be a mapping"),
    ("badkind.yaml", "kind: training\n", "unknown workload kind"),
])
def test_loading_errors_are_spec_errors(tmp_path, name, content, fragment):
    path = tmp_path / name
    if content is not None:
        path.write_text(content)
    with pytest.raises(SpecError, match=fragment):
        load_spec(path)


def test_load_spec_dict_skips_validation(tmp_path):
    path = tmp_path / "raw.yaml"
    path.write_text("kind: nonsense\nextra: 1\n")
    assert load_spec_dict(path) == {"kind": "nonsense", "extra": 1}


def test_stream_spec_file_slo_stretch_zero_disables_deadlines(tmp_path,
                                                              capsys):
    """``slo_stretch: 0`` in a spec file means what ``presto stream
    --slo-stretch 0`` means: no deadlines, the same experiment."""
    from repro.cli import main
    path = tmp_path / "no_deadlines.yaml"
    path.write_text("kind: stream\nstream:\n  tenants: 2\n  requests: 4\n"
                    "  batch: 8\n  slo_stretch: 0\n")
    spec = load_spec(path)
    assert spec.stream.slo_stretch is None
    assert main(["run", str(path)]) == 0
    via_spec = capsys.readouterr().out
    assert main(["stream", "--tenants", "2", "--requests", "4",
                 "--batch", "8", "--slo-stretch", "0"]) == 0
    assert via_spec == capsys.readouterr().out
