"""Word-list resources: census first names, personal titles, pronoun attributes, copulas.

Resource files live in a directory (see ``load_lexicon``); the package ships a
default set under ``coref/resources``. All lookups are case-insensitive and
the loaded tables are immutable.
"""

from __future__ import annotations

import enum
import functools
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable


class Gender(enum.Enum):
    MALE = "male"
    FEMALE = "female"
    UNKNOWN = "unknown"

    # Members are singletons, so identity hashing is exact, and it runs in C
    # where Enum's own __hash__ is a Python call per profile lookup.
    # Reading a member is slow too: on Python 3.11 ``EnumType`` defines
    # ``__getattr__``, which sends every class attribute read, such as
    # ``Gender.UNKNOWN``, through a slow hook (about 130 ns, against 8 for a
    # module global). So resolve.py, mention.py and report.py read the
    # members their per-mention code needs through module-level aliases
    # bound once at import, and a test in tests/test_package.py keeps
    # member reads out of their function bodies.
    __hash__ = object.__hash__


class Personhood(enum.Enum):
    PERSON = "person"
    NOT_PERSON = "notperson"
    UNKNOWN = "unknown"

    __hash__ = object.__hash__


class Number(enum.Enum):
    SINGULAR = "singular"
    PLURAL = "plural"
    UNKNOWN = "unknown"

    __hash__ = object.__hash__


class GrammaticalPerson(enum.Enum):
    FIRST = "first"
    SECOND = "second"
    THIRD = "third"


class LexiconError(Exception):
    """A resource file is missing, unreadable or malformed."""


class PronounEntry(NamedTuple):
    surface: str
    gender: Gender
    personhood: Personhood
    number: Number
    grammatical_person: GrammaticalPerson
    reflexive: bool
    possessive: bool


class Lexicon(NamedTuple):
    titles: dict[str, Gender]  # normalized title -> gender
    pronouns: dict[str, PronounEntry]  # lowercase surface -> entry
    copulas: frozenset[str]
    #: Case-folded census first name -> the gender of the one list it is on;
    #: a name on both lists (or neither) is absent, so its gender is unknown.
    first_names: dict[str, Gender]

    def is_copula(self, word: str) -> bool:
        return word.casefold() in self.copulas


def _normalize_title(word: str) -> str:
    return word.casefold().rstrip(".")


def _is_float(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


def _content_lines(text: str) -> Iterable[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_names(name: str, text: str) -> frozenset[str]:
    """Accept one word per line or census columns (name freq cumfreq rank)."""
    names = set()
    for lineno, line in _content_lines(text):
        fields = line.split()
        if len(fields) == 1:
            names.add(fields[0].casefold())
        elif len(fields) == 4 and all(_is_float(f) for f in fields[1:]):
            names.add(fields[0].casefold())
        else:
            raise LexiconError(f"{name}, line {lineno}: malformed name entry: {line!r}")
    return frozenset(names)


def _parse_titles(name: str, text: str) -> dict[str, Gender]:
    titles: dict[str, Gender] = {}
    for lineno, line in _content_lines(text):
        fields = line.split("\t")
        if len(fields) != 2:
            raise LexiconError(f"{name}, line {lineno}: expected 'title TAB gender'")
        try:
            gender = Gender(fields[1].strip().casefold())
        except ValueError:
            raise LexiconError(f"{name}, line {lineno}: unknown gender {fields[1]!r}") from None
        titles[_normalize_title(fields[0].strip())] = gender
    return titles


_BOOLS = {"true": True, "false": False}


def _parse_pronouns(name: str, text: str) -> dict[str, PronounEntry]:
    pronouns: dict[str, PronounEntry] = {}
    for lineno, line in _content_lines(text):
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) != 7:
            raise LexiconError(f"{name}, line {lineno}: expected 7 tab-separated fields")
        surface = fields[0].casefold()
        if surface in pronouns:
            raise LexiconError(f"{name}, line {lineno}: duplicate pronoun {surface!r}")
        try:
            number = Number(fields[3].casefold())
            if number is Number.UNKNOWN:
                raise ValueError
            entry = PronounEntry(
                surface=surface,
                gender=Gender(fields[1].casefold()),
                personhood=Personhood(fields[2].casefold()),
                number=number,
                grammatical_person=GrammaticalPerson(fields[4].casefold()),
                reflexive=_BOOLS[fields[5].casefold()],
                possessive=_BOOLS[fields[6].casefold()],
            )
        except (ValueError, KeyError):
            raise LexiconError(f"{name}, line {lineno}: malformed pronoun entry: {line!r}") from None
        pronouns[surface] = entry
    return pronouns


def _parse_copulas(name: str, text: str) -> frozenset[str]:
    forms = set()
    for lineno, line in _content_lines(text):
        if len(line.split()) != 1:
            raise LexiconError(f"{name}, line {lineno}: expected one form per line")
        forms.add(line.casefold())
    if not forms:
        raise LexiconError(f"{name}: copula list is empty")
    return frozenset(forms)


_FILES = {
    "male names": ("male_names.txt", _parse_names),
    "female names": ("female_names.txt", _parse_names),
    "titles": ("titles.tsv", _parse_titles),
    "pronouns": ("pronouns.tsv", _parse_pronouns),
    "copulas": ("copulas.txt", _parse_copulas),
}


def load_lexicon(directory: str | Path | Traversable) -> Lexicon:
    """Load all resource tables from ``directory``, a path or package resource.

    Raises LexiconError naming the file when one is missing, cannot be read
    or is not UTF-8, or the file and line number when an entry is malformed.
    """
    directory = Path(directory) if isinstance(directory, str) else directory
    parsed = {}
    for label, (filename, parser) in _FILES.items():
        path = directory.joinpath(filename)
        if not path.is_file():
            raise LexiconError(f"{label} file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as err:
            raise LexiconError(f"{path}: not UTF-8: {err}") from None
        except OSError as err:
            raise LexiconError(f"{path}: cannot read: {err.strerror or err}") from None
        parsed[label] = parser(filename, text)
    male, female = parsed["male names"], parsed["female names"]
    first_names = dict.fromkeys(male - female, Gender.MALE)
    first_names.update(dict.fromkeys(female - male, Gender.FEMALE))
    return Lexicon(
        titles=parsed["titles"],
        pronouns=parsed["pronouns"],
        copulas=parsed["copulas"],
        first_names=first_names,
    )


@functools.cache
def default_lexicon() -> Lexicon:
    """The lexicon shipped with the package (loaded once, then cached).

    Its files are in the ``resources`` directory next to this module, where
    the package data is installed.
    """
    return load_lexicon(Path(__file__).parent / "resources")


def pronoun_lookup(word: str, lexicon: Lexicon) -> Optional[PronounEntry]:
    """Case-insensitive pronoun table lookup; absence is a valid result."""
    return lexicon.pronouns.get(word.casefold())
