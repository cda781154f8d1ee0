from importlib import resources as importlib_resources

import pytest

from coref import (Gender, GrammaticalPerson, LexiconError, Number, Personhood,
                   default_lexicon, gender_of_first_name, load_lexicon,
                   pronoun_lookup)


def test_load_fixture_directory(fixture_lex):
    counts = fixture_lex.counts()
    assert counts["male_names"] > 0
    assert counts["female_names"] > 0
    assert counts["pronouns"] >= 30
    assert counts["copulas"] > 0


def test_census_format_line_loads(fixture_lex):
    assert "mary" in fixture_lex.names.female_names
    assert "john" in fixture_lex.names.male_names
    assert "fred" in fixture_lex.names.male_names


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


def test_malformed_name_line_reports_line_number(tmp_path, fixture_resources):
    for name in ("female_names.txt", "titles.tsv", "pronouns.tsv", "copulas.txt"):
        (tmp_path / name).write_text((fixture_resources / name).read_text())
    (tmp_path / "male_names.txt").write_text("john\n\nMARY 2.6\n")
    with pytest.raises(LexiconError, match="male_names.txt, line 3"):
        load_lexicon(tmp_path)


def test_malformed_pronoun_row_rejected(tmp_path, fixture_resources):
    for name in ("male_names.txt", "female_names.txt", "titles.tsv", "copulas.txt"):
        (tmp_path / name).write_text((fixture_resources / name).read_text())
    (tmp_path / "pronouns.tsv").write_text("he\tmale\tperson\tunknown\tthird\tfalse\tfalse\n")
    with pytest.raises(LexiconError, match="pronouns.tsv, line 1"):
        load_lexicon(tmp_path)


def test_comment_lines_are_skipped(fixture_lex):
    assert "#" not in "".join(fixture_lex.names.male_names)


def test_gender_absent_from_both_lists(fixture_lex):
    assert gender_of_first_name("zzyzx", fixture_lex.names) is Gender.UNKNOWN


def test_gender_present_in_both_lists_is_unknown(fixture_lex):
    # "leslie" is deliberately on both fixture lists.
    assert "leslie" in fixture_lex.names.male_names
    assert "leslie" in fixture_lex.names.female_names
    assert gender_of_first_name("Leslie", fixture_lex.names) is Gender.UNKNOWN


def test_gender_single_list_lookup(fixture_lex):
    assert gender_of_first_name("Mary", fixture_lex.names) is Gender.FEMALE
    assert gender_of_first_name("JOHN", fixture_lex.names) is Gender.MALE


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
    assert lex.title_gender("Mr.") is Gender.MALE
    assert lex.title_gender("mrs") is Gender.FEMALE
    assert lex.title_gender("Dr.") is Gender.UNKNOWN
    assert lex.is_title("Prof.")
    assert not lex.is_title("banana")


def test_copulas(lex):
    assert lex.is_copula("is")
    assert lex.is_copula("'s")
    assert lex.is_copula("Been")
    assert not lex.is_copula("bought")
