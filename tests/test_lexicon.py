from importlib import resources as importlib_resources
from pathlib import Path

import pytest

from coref import (Gender, GrammaticalPerson, LexiconError, Number, Personhood,
                   default_lexicon, load_lexicon)
from coref.cli import main
from coref.lexicon import pronoun_lookup

_RESOURCE_FILES = ("male_names.txt", "female_names.txt", "titles.tsv", "pronouns.tsv",
                   "copulas.txt")


def test_load_fixture_directory(fixture_lex):
    assert set(fixture_lex.first_names.values()) == {Gender.MALE, Gender.FEMALE}
    assert len(fixture_lex.pronouns) >= 30
    assert len(fixture_lex.copulas) > 0


def test_census_format_line_loads(fixture_lex):
    assert fixture_lex.first_names["mary"] is Gender.FEMALE
    assert fixture_lex.first_names["john"] is Gender.MALE
    assert fixture_lex.first_names["fred"] is Gender.MALE


def test_package_resources_load_as_default_lexicon():
    packaged = load_lexicon(importlib_resources.files("coref") / "resources")
    assert packaged == default_lexicon()
    assert default_lexicon() is default_lexicon()


def test_directory_given_as_string(fixture_resources, fixture_lex):
    assert load_lexicon(str(fixture_resources)) == fixture_lex


def test_missing_file_reports_which(tmp_path):
    (tmp_path / "male_names.txt").write_text("john\n")
    with pytest.raises(LexiconError, match="female names file not found"):
        load_lexicon(tmp_path)


_HE = "he\tmale\tperson\tsingular\tthird\tfalse\tfalse\n"


@pytest.mark.parametrize("name, text, expected", [
    ("male_names.txt", "john\n\nMARY 2.6\n",
     "male_names.txt, line 3: malformed name entry: 'MARY 2.6'"),
    ("female_names.txt", "MARY 2.6 x 1\n",
     "female_names.txt, line 1: malformed name entry: 'MARY 2.6 x 1'"),
    ("titles.tsv", "Mr.\tmale\nMrs. female\n",
     "titles.tsv, line 2: expected 'title TAB gender'"),
    ("titles.tsv", "# title\tgender\nMr.\tmasculine\n",
     "titles.tsv, line 2: unknown gender 'masculine'"),
    ("pronouns.tsv", "he\tmale\tperson\tunknown\tthird\tfalse\tfalse\n",
     "pronouns.tsv, line 1: malformed pronoun entry: "
     "'he\\tmale\\tperson\\tunknown\\tthird\\tfalse\\tfalse'"),
    ("pronouns.tsv", "he\tmale\tperson\tsingular\tthird\tfalse\n",
     "pronouns.tsv, line 1: expected 7 tab-separated fields"),
    ("pronouns.tsv", _HE + "\n" + _HE.upper(),
     "pronouns.tsv, line 3: duplicate pronoun 'he'"),
    ("copulas.txt", "is\nis not\n", "copulas.txt, line 2: expected one form per line"),
    ("copulas.txt", "# none\n\n", "copulas.txt: copula list is empty"),
], ids=["name-columns", "census-columns-not-numbers", "title-without-one-tab",
        "unknown-title-gender", "pronoun-number-unknown", "pronoun-six-fields",
        "duplicate-pronoun", "two-word-copula", "empty-copula-list"])
def test_malformed_resource_entry_reports_file_and_line(tmp_path, fixture_resources, name,
                                                        text, expected):
    for other in _RESOURCE_FILES:
        (tmp_path / other).write_text((fixture_resources / other).read_text())
    (tmp_path / name).write_text(text)
    with pytest.raises(LexiconError) as err:
        load_lexicon(tmp_path)
    assert str(err.value) == expected


@pytest.mark.parametrize("fault", ["not-utf8", "cannot-read"])
def test_unreadable_file_is_named(tmp_path, fixture_resources, monkeypatch, capsys, fault):
    for name in _RESOURCE_FILES:
        (tmp_path / name).write_bytes((fixture_resources / name).read_bytes())
    bad = tmp_path / "titles.tsv"
    if fault == "not-utf8":
        bad.write_bytes(b"Mr.\tmale\nM\xe9e.\tfemale\n")
        expected = f"{bad}: not UTF-8: 'utf-8' codec can't decode byte 0xe9"
    else:  # the tests may run as root, which reads any file: refuse it here
        read_text = Path.read_text

        def refuse(path, *args, **kwargs):
            if path.name == bad.name:
                raise PermissionError(13, "Permission denied", str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", refuse)
        expected = f"{bad}: cannot read: Permission denied"
    with pytest.raises(LexiconError) as info:
        load_lexicon(tmp_path)
    assert str(info.value).startswith(expected)
    assert main(["resolve", "--resources", str(tmp_path), str(tmp_path / "in.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {expected}") and err.count("\n") == 1


def test_comment_lines_are_skipped(fixture_lex):
    assert "#" not in "".join(fixture_lex.first_names)


def test_gender_absent_from_both_lists(fixture_lex):
    assert "zzyzx" not in fixture_lex.first_names


def test_gender_present_in_both_lists_is_unknown(fixture_resources, fixture_lex):
    # "leslie" is deliberately on both fixture lists.
    assert "leslie" in _name_file(fixture_resources / "male_names.txt")
    assert "leslie" in _name_file(fixture_resources / "female_names.txt")
    assert "Leslie".casefold() not in fixture_lex.first_names


def test_gender_single_list_lookup(fixture_lex):
    assert fixture_lex.first_names["Mary".casefold()] is Gender.FEMALE
    assert fixture_lex.first_names["JOHN".casefold()] is Gender.MALE


def _name_file(path):
    """The case-folded names of a name file, read independently of
    ``load_lexicon``: the first field of each line that is neither blank nor
    a comment, where a line is one name or census columns."""
    names = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            assert len(fields) in (1, 4), line
            names.add(fields[0].casefold())
    return names


@pytest.mark.parametrize("source", ["packaged", "fixture"])
def test_first_names_are_exactly_the_names_on_one_list(source, fixture_resources):
    directory = (importlib_resources.files("coref") / "resources"
                 if source == "packaged" else fixture_resources)
    male = _name_file(directory / "male_names.txt")
    female = _name_file(directory / "female_names.txt")
    expected = {name: Gender.MALE for name in male - female}
    expected.update({name: Gender.FEMALE for name in female - male})
    first_names = load_lexicon(directory).first_names
    assert first_names == expected
    assert male - female and female - male
    assert "leslie" in male & female
    assert "leslie" not in first_names


def test_pronoun_he(lex):
    entry = pronoun_lookup("he", lex)
    assert entry.gender is Gender.MALE
    assert entry.personhood is Personhood.PERSON
    assert entry.number is Number.SINGULAR
    assert entry.grammatical_person is GrammaticalPerson.THIRD
    assert not entry.reflexive


def test_pronoun_they(lex):
    entry = pronoun_lookup("they", lex)
    assert entry.gender is Gender.UNKNOWN
    assert entry.personhood is Personhood.UNKNOWN
    assert entry.number is Number.PLURAL
    assert entry.grammatical_person is GrammaticalPerson.THIRD


def test_pronoun_itself(lex):
    entry = pronoun_lookup("itself", lex)
    assert entry.personhood is Personhood.NOT_PERSON
    assert entry.number is Number.SINGULAR
    assert entry.grammatical_person is GrammaticalPerson.THIRD
    assert entry.reflexive


def test_pronoun_lookup_is_case_insensitive(lex):
    assert pronoun_lookup("He", lex) is pronoun_lookup("he", lex)
    assert pronoun_lookup("THEY", lex) is not None


def test_pronoun_lookup_absent_is_none(lex):
    assert pronoun_lookup("table", lex) is None


def test_titles(lex):
    """Titles are keyed casefolded, with trailing dots stripped."""
    assert lex.titles["mr"] is Gender.MALE
    assert lex.titles["mrs"] is Gender.FEMALE
    assert lex.titles["dr"] is Gender.UNKNOWN
    assert "prof" in lex.titles
    assert "banana" not in lex.titles
    assert all(key == key.casefold().rstrip(".") for key in lex.titles)


def test_copulas(lex):
    assert lex.is_copula("is")
    assert lex.is_copula("'s")
    assert lex.is_copula("Been")
    assert not lex.is_copula("bought")
