"""Every reader of a number written as text reads one grammar: a run of
ASCII digits, for a rational optionally followed by '/' and a non-zero run
of ASCII digits.  The same forms are refused by --max-degree, preset
params, presentation degrees, series JSON keys and ground tokens, and the
same forms read."""
from fractions import Fraction

import pytest

from skewgrowth.cli import main
from skewgrowth.dirichlet import KeyKind, series_from_json
from skewgrowth.errors import (InvalidGroundError, InvalidParamsError, MalformedKeyError,
                               PresentationParseError)
from skewgrowth.presentation import parse_presentation
from skewgrowth.presets import parse_preset

# Arabic-Indic three, a digit separator, an exponent, a decimal point, a
# sign, and Arabic-Indic four as a denominator
REFUSED = ["٣", "1_0", "1e1", "2.5", "+3", "3/٤"]


@pytest.mark.parametrize("text", REFUSED)
@pytest.mark.parametrize("preset", ["example3", "zpos:30"])
def test_max_degree_refuses(preset, text, capsys):
    assert main(["growth", "--preset", preset, "--max-degree", text]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: --max-degree: ")
    assert repr(text) in err


def test_max_degree_names_the_fraction_for_a_decimal(capsys):
    assert main(["growth", "--preset", "example3", "--max-degree", "2.5"]) == 2
    assert capsys.readouterr().err.rstrip().endswith("for 2.5 write 5/2")


@pytest.mark.parametrize("text", REFUSED)
def test_preset_values_refuse(text):
    for preset in (f"zpos:{text}", f"free:2:degrees=1,{text}", f"mp:p=4,{text}"):
        with pytest.raises(InvalidParamsError):
            parse_preset(preset)


@pytest.mark.parametrize("text", REFUSED)
def test_presentation_degrees_refuse(text):
    with pytest.raises(PresentationParseError) as info:
        parse_presentation(f"gen a : 1\ngen b : {text}\n")
    assert (info.value.line, info.value.column) == (2, 9)


@pytest.mark.parametrize("text", REFUSED)
@pytest.mark.parametrize("kind", ["rational", "multint"])
def test_series_json_keys_refuse(kind, text):
    with pytest.raises(MalformedKeyError):
        series_from_json({"key_kind": kind, "cutoff": "8", "terms": [[text, "1"]]})
    with pytest.raises(MalformedKeyError):
        series_from_json({"key_kind": kind, "cutoff": text, "terms": []})


@pytest.mark.parametrize("text", REFUSED)
def test_ground_tokens_refuse(text, zpos_table, mp_table):
    for table, token in ((zpos_table, text), (mp_table, f"a{text}"), (mp_table, f"a0^{text}")):
        with pytest.raises(InvalidGroundError):
            table.parse_label(token)


def test_digits_past_the_interpreters_limit_are_refused(zpos_table, mp_table, capsys):
    text = "9" * 5000  # more digits than int() reads by default
    with pytest.raises(PresentationParseError):
        parse_presentation(f"gen a : {text}\n")
    with pytest.raises(InvalidParamsError):
        parse_preset(f"zpos:{text}")
    with pytest.raises(MalformedKeyError):
        series_from_json({"key_kind": "rational", "cutoff": f"1/{text}", "terms": []})
    for table, token in ((zpos_table, text), (mp_table, f"a0^{text}")):
        with pytest.raises(InvalidGroundError):
            table.parse_label(token)
    assert main(["growth", "--preset", "example3", "--max-degree", text]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    # decimals, the one spelling read for its hint, with either side past the limit
    for decimal in (text + ".5", "1." + text):
        assert main(["growth", "--preset", "example3", "--max-degree", decimal]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: --max-degree: ")
        for preset in (f"zpos:{decimal}", f"free:2:degrees=1,{decimal}"):
            with pytest.raises(InvalidParamsError):
                parse_preset(preset)
        with pytest.raises(PresentationParseError) as info:
            parse_presentation(f"gen a : {decimal}\n")
        assert (info.value.line, info.value.column) == (1, 9)
        with pytest.raises(MalformedKeyError):
            series_from_json({"key_kind": "rational", "cutoff": "8", "terms": [[decimal, "1"]]})
        with pytest.raises(MalformedKeyError):
            series_from_json({"key_kind": "rational", "cutoff": decimal, "terms": []})


@pytest.mark.parametrize("preset", ["example3", "zpos:30"])
@pytest.mark.parametrize("text", ["9" * 5000 + ".5", "9" * 4300 + ".5", "1." + "9" * 4300,
                                  "x" * 5000, "9" * 41 + ".5"],
                         ids=["5000-nines.5", "4300-nines.5", "1.4300-nines", "5000-letters",
                              "41-nines.5"])
def test_a_long_refused_text_is_echoed_clipped(preset, text, capsys):
    # the text and the decimal hint are clipped, so the line stays short
    assert main(["growth", "--preset", preset, "--max-degree", text]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: --max-degree: ")
    assert len(err) < 200


def test_accepted_forms_read_as_before(zpos_table, mp_table, capsys):
    for preset, text, cutoff in [("example3", "7", "7"), ("example3", "7/2", "7/2"),
                                 ("zpos:30", "7", "7")]:
        assert main(["growth", "--preset", preset, "--max-degree", text]) == 0
        assert capsys.readouterr().out.startswith(f"# growth  model={preset}  cutoff={cutoff}\n")
    assert parse_preset("zpos:7").default_cutoff == 7
    assert parse_preset("free:1:degrees=7/2").presentation.degree_of("a") == Fraction(7, 2)
    assert parse_presentation("gen a : 7\ngen b : 7/2\n").degree_of("b") == Fraction(7, 2)
    for kind, key in [("rational", Fraction(7, 2)), ("rational", Fraction(7)), ("multint", 7)]:
        text = str(key)
        series = series_from_json({"key_kind": kind, "cutoff": "8", "terms": [[text, "1"]]})
        assert series.kind is KeyKind(kind) and series.terms == {key: 1}
    assert zpos_table.parse_label("7") == zpos_table.element_id(7)
    assert mp_table.label(mp_table.parse_label("a0^2")) == "a0^2"
