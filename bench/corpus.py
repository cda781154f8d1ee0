"""Seeded synthetic corpora in the coref input JSON schema.

Documents are sequences of template sentences over a small discourse model:
named people (with titles and roles), inanimate things, places and groups.
The generator knows which entity every mention refers to, so the gold
clusters come from construction, not from running the resolver. Each
template also declares its mention spans; the benchmark checks them against
the spans the program finds.

Only the standard library ``random`` module is used, and every choice is
drawn from one ``random.Random`` seeded by the caller, so a seed fixes the
corpus byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

MALE_FIRST = ("John", "David", "Robert", "Michael", "William", "Thomas",
              "Charles", "Daniel", "Paul", "Mark", "George", "Steven",
              "Edward", "Brian", "Kevin", "James", "Richard", "Joseph")
FEMALE_FIRST = ("Mary", "Linda", "Susan", "Karen", "Nancy", "Lisa", "Betty",
                "Sandra", "Donna", "Carol", "Ruth", "Sharon", "Laura",
                "Sarah", "Helen", "Patricia", "Barbara", "Jennifer")
SURNAMES = ("Smith", "Jones", "Brown", "Miller", "Davis", "Wilson", "Moore",
            "Taylor", "Clark", "Walker", "Hall", "Young", "King", "Wright",
            "Green", "Baker", "Adams", "Carter", "Roberts", "Turner",
            "Phillips", "Campbell", "Parker", "Evans", "Edwards", "Collins")
ROLES = ("engineer", "director", "lawyer", "manager", "doctor", "teacher",
         "reporter", "officer", "pilot", "chef", "author", "banker",
         "senator", "coach", "judge", "editor", "architect", "nurse",
         "professor", "sergeant", "captain", "mayor", "dentist", "chemist",
         "artist", "broker")
THINGS = ("report", "engine", "contract", "building", "computer", "budget",
          "plan", "factory", "machine", "letter", "vehicle", "system",
          "project", "product", "record", "proposal", "network", "device",
          "design", "bridge", "program", "policy", "study", "camera")
GROUPS = ("workers", "students", "voters", "investors", "soldiers",
          "farmers", "residents", "players", "nurses", "drivers")
PLACES = ("Boston", "Chicago", "Denver", "Tokyo", "Berlin", "Madrid",
          "Dallas", "Seattle", "Toronto", "Cairo")
VERBS = ("praised", "reviewed", "approved", "criticized", "visited",
         "examined", "described", "supported", "signed", "questioned",
         "rejected", "studied")

#: Template name -> copies per deck. Decks are dealt corpus-wide, so the
#: template mix (and with it the mention count per sentence) is the same for
#: every seed; only the order and the words change.
TEMPLATE_DECK = {
    "pronoun": 4, "nominal": 2, "proper": 2, "appositive": 1,
    "pred_nom": 1, "role_appositive": 1, "possessive": 1, "reflexive": 1,
    "plural": 1, "embedded": 1,
}


class Leaf:
    __slots__ = ("tag", "word", "entity", "ann")

    def __init__(self, tag: str, word: str, entity: Optional[int] = None,
                 ann: Optional[dict] = None):
        self.tag, self.word, self.entity, self.ann = tag, word, entity, ann


class Phrase:
    __slots__ = ("label", "children", "entity")

    def __init__(self, label: str, *children, entity: Optional[int] = None):
        self.label, self.children, self.entity = label, children, entity


@dataclass
class Entity:
    eid: int
    kind: str  # person | thing | group | place
    head: str  # surname, noun or place name
    first: str = ""
    gender: str = ""  # "m" or "f" for people
    role: str = ""


@dataclass
class GeneratedDoc:
    """One document in the input schema plus the mention spans it declares.

    ``spans`` lists (sentence, start, end) in document order; ``data`` holds
    ``gold_clusters`` over those spans (and ``gold_mentions`` when the
    workload supplies them to the program).
    """
    data: dict
    spans: list[tuple[int, int, int]]


def render(tree: Phrase, sentence: int, mentions: list, annotations: list) -> str:
    """Bracketed form of ``tree``; appends (s, start, end, entity) for marked
    nodes and the token annotations of sentence ``sentence``."""
    position = 0

    def walk(node) -> str:
        nonlocal position
        if isinstance(node, Leaf):
            if node.ann:
                annotations.append({"s": sentence, "t": position, **node.ann})
            if node.entity is not None:
                mentions.append((sentence, position, position + 1, node.entity))
            position += 1
            return f"({node.tag} {node.word})"
        start = position
        inner = " ".join(walk(child) for child in node.children)
        if node.entity is not None:
            mentions.append((sentence, start, position, node.entity))
        return f"({node.label} {inner})"

    return walk(tree)


class Discourse:
    """Entities of one document and the order in which they were mentioned."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.entities: list[Entity] = []
        self.recent: list[int] = []  # entity ids, most recently mentioned last
        self.mentioned: set[int] = set()

    def _free(self, pool: Sequence[str], kind: str) -> list[str]:
        taken = {e.head for e in self.entities if e.kind == kind}
        return [word for word in pool if word not in taken]

    def _pick(self, kind: str, p_new: float) -> Entity:
        known = [self.entities[i] for i in reversed(self.recent)
                 if self.entities[i].kind == kind]
        free = self._free({"person": SURNAMES, "thing": THINGS,
                           "group": GROUPS, "place": PLACES}[kind], kind)
        if free and (not known or self.rng.random() < p_new):
            entity = Entity(len(self.entities), kind, self.rng.choice(free))
            if kind == "person":
                entity.gender = self.rng.choice("mf")
                entity.first = self.rng.choice(
                    MALE_FIRST if entity.gender == "m" else FEMALE_FIRST)
            self.entities.append(entity)
            return entity
        # Every entity is mentioned as soon as it is made, so when the pool
        # is used up ``known`` holds them all.
        return self.rng.choice(known[:4])

    def person(self, p_new: float = 0.3, exclude: Optional[Entity] = None) -> Entity:
        for _ in range(8):
            entity = self._pick("person", p_new)
            if entity is not exclude:
                return entity
        return entity

    def thing(self, p_new: float = 0.35) -> Entity:
        return self._pick("thing", p_new)

    def touch(self, entity: Entity) -> None:
        if entity.eid in self.recent:
            self.recent.remove(entity.eid)
        self.recent.append(entity.eid)

    def latest(self, kinds: Sequence[str]) -> Optional[Entity]:
        for eid in reversed(self.recent):
            if self.entities[eid].kind in kinds:
                return self.entities[eid]
        return None

    def role_of(self, person: Entity) -> str:
        # ROLES has an entry for every surname, so no two people share a
        # role and a role noun never links two people in the gold.
        if not person.role:
            taken = {e.role for e in self.entities}
            person.role = self.rng.choice([r for r in ROLES if r not in taken])
        return person.role

    # -- noun phrases --------------------------------------------------------

    def person_np(self, e: Entity, full: bool = False, mark: bool = True) -> Phrase:
        rng = self.rng
        ann = {"ner": "PERSON"} if rng.random() < 0.3 else None
        first_time = e.eid not in self.mentioned
        form = "full" if full or first_time else rng.choice(("last", "title", "full"))
        if form == "full":
            words = [Leaf("NNP", e.first), Leaf("NNP", e.head, ann=ann)]
        elif form == "title":
            words = [Leaf("NNP", "Mr." if e.gender == "m" else "Mrs."),
                     Leaf("NNP", e.head, ann=ann)]
        else:
            words = [Leaf("NNP", e.head, ann=ann)]
        phrase = Phrase("NP", *words)
        return self.mark(phrase, e) if mark else phrase

    def thing_np(self, e: Entity, determiner: str = "the") -> Phrase:
        ann = {"supersense": "noun.artifact"} if self.rng.random() < 0.2 else None
        return self.mark(Phrase("NP", Leaf("DT", determiner),
                                 Leaf("NN", e.head, ann=ann)), e)

    def group_np(self, e: Entity, determiner: str = "the") -> Phrase:
        ann = {"supersense": "noun.group"} if self.rng.random() < 0.2 else None
        return self.mark(Phrase("NP", Leaf("DT", determiner),
                                 Leaf("NNS", e.head, ann=ann)), e)

    def place_np(self, e: Entity) -> Phrase:
        roll = self.rng.random()
        ann = ({"supersense": "noun.location"} if roll < 0.4
               else {"ner": "LOCATION"} if roll < 0.7 else None)
        return self.mark(Phrase("NP", Leaf("NNP", e.head, ann=ann)), e)

    def role_np(self, e: Entity) -> Phrase:
        ann = {"supersense": "noun.person"} if self.rng.random() < 0.4 else None
        return self.mark(Phrase("NP", Leaf("DT", "the"),
                                 Leaf("NN", self.role_of(e), ann=ann)), e)

    def mark(self, phrase: Phrase, e: Entity) -> Phrase:
        """Make ``phrase`` a mention of ``e``."""
        phrase.entity = e.eid
        self.mentioned.add(e.eid)
        self.touch(e)
        return phrase

    def object_np(self, avoid: Optional[Entity] = None) -> Phrase:
        roll = self.rng.random()
        if roll < 0.2:
            return self.place_np(self._pick("place", 0.4))
        if roll < 0.4:
            return self.person_np(self.person(exclude=avoid))
        return self.thing_np(self.thing())


def _verb(rng: random.Random, word: Optional[str] = None) -> Leaf:
    return Leaf("VBD", word or rng.choice(VERBS))


def _clause(subject: Phrase, vp: Phrase) -> Phrase:
    return Phrase("S", subject, vp, Leaf(".", "."))


_PRONOUNS = {("person", "m"): ("He", "his", "himself"),
             ("person", "f"): ("She", "her", "herself"),
             ("thing", ""): ("It", "its", "itself"),
             ("group", ""): ("They", "their", "themselves")}


def _pronoun_forms(e: Entity) -> tuple[str, str, str]:
    return _PRONOUNS[(e.kind, e.gender)]


def sentence(template: str, d: Discourse) -> Phrase:
    """One sentence tree for ``template``; mention nodes carry entity ids."""
    rng = d.rng
    if template == "pronoun":
        target = d.latest(("person", "thing", "group"))
        if target is None:
            return sentence("proper", d)
        subject = Phrase("NP", Leaf("PRP", _pronoun_forms(target)[0]),
                         entity=target.eid)
        d.touch(target)
        return _clause(subject, Phrase("VP", _verb(rng), d.object_np(avoid=target)))
    if template == "nominal":
        subject = d.thing_np(d.thing(), "The")
        return _clause(subject, Phrase("VP", _verb(rng), d.object_np()))
    if template == "proper":
        person = d.person(p_new=0.4)
        subject = d.person_np(person)
        return _clause(subject, Phrase("VP", _verb(rng), d.object_np(avoid=person)))
    if template == "appositive":
        person = d.person()
        inner = d.person_np(person, mark=False)
        outer = Phrase("NP", inner, Leaf(",", ","), d.role_np(person), Leaf(",", ","))
        outer = d.mark(outer, person)
        # The outer NP, not the name inside it, is the person's mention: both
        # have the name as Collins head, and the largest NP per head is kept.
        return _clause(outer, Phrase("VP", _verb(rng), d.thing_np(d.thing())))
    if template == "pred_nom":
        person = d.person()
        subject = d.person_np(person)
        copula = rng.choice(("was", "is"))
        return _clause(subject, Phrase("VP", Leaf("VBD" if copula == "was" else "VBZ", copula),
                                       d.role_np(person)))
    if template == "role_appositive":
        person = d.person(p_new=0.5)
        role = Phrase("NP", Leaf("NN", d.role_of(person)))
        outer = d.mark(Phrase("NP", role, d.person_np(person, full=True)), person)
        return _clause(outer, Phrase("VP", _verb(rng), d.thing_np(d.thing())))
    if template == "possessive":
        person = d.person()
        subject = d.person_np(person)
        possessor = Leaf("PRP$", _pronoun_forms(person)[1], entity=person.eid)
        thing = d.thing(p_new=0.5)
        obj = Phrase("NP", possessor, Leaf("NN", thing.head), entity=thing.eid)
        d.touch(thing)
        return _clause(subject, Phrase("VP", _verb(rng, "sold"), obj))
    if template == "reflexive":
        person = d.person()
        subject = d.person_np(person)
        obj = Phrase("NP", Leaf("PRP", _pronoun_forms(person)[2]), entity=person.eid)
        return _clause(subject, Phrase("VP", _verb(rng), obj))
    if template == "plural":
        subject = d.group_np(d._pick("group", 0.4), "The")
        return _clause(subject, Phrase("VP", _verb(rng), d.object_np()))
    if template == "embedded":
        person = d.person()
        subject = d.person_np(person)
        pronoun = Phrase("NP", Leaf("PRP", _pronoun_forms(person)[0].lower()),
                         entity=person.eid)
        inner = Phrase("S", pronoun, Phrase("VP", _verb(rng), d.thing_np(d.thing())))
        return _clause(subject, Phrase("VP", _verb(rng, "said"),
                                       Phrase("SBAR", Leaf("IN", "that"), inner)))
    raise ValueError(f"unknown template {template!r}")


class Deck:
    """Deals template names from shuffled copies of TEMPLATE_DECK."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.cards: list[str] = []

    def deal(self) -> str:
        if not self.cards:
            self.cards = [name for name, copies in TEMPLATE_DECK.items()
                          for _ in range(copies)]
            self.rng.shuffle(self.cards)
        return self.cards.pop()


def document(doc_id: str, n_sentences: int, rng: random.Random, deck: Deck,
             gold_mentions: bool) -> GeneratedDoc:
    d = Discourse(rng)
    sentences, mentions, annotations = [], [], []
    for s in range(n_sentences):
        template = "proper" if s == 0 else deck.deal()
        sentences.append(render(sentence(template, d), s, mentions, annotations))
    mentions.sort(key=lambda m: (m[0], m[1], -m[2]))
    clusters: dict[int, list[int]] = {}
    for index, (_, _, _, entity) in enumerate(mentions):
        clusters.setdefault(entity, []).append(index)
    spans = [(s, start, end) for s, start, end, _ in mentions]
    data = {"id": doc_id, "sentences": sentences, "annotations": annotations,
            "gold_clusters": list(clusters.values())}
    if gold_mentions:
        data["gold_mentions"] = [{"s": s, "start": start, "end": end}
                                 for s, start, end in spans]
    return GeneratedDoc(data=data, spans=spans)


def generate(seed: str, lengths: Sequence[int],
             gold_mentions: bool = False) -> list[GeneratedDoc]:
    """One document per entry of ``lengths`` (sentences per document).

    The seed permutes the order of the lengths; their multiset, and so the
    corpus size, stays fixed.
    """
    rng = random.Random(seed)
    order = list(lengths)
    rng.shuffle(order)
    deck = Deck(rng)
    return [document(f"d{i:04d}-s{n}", n, rng, deck, gold_mentions)
            for i, n in enumerate(order)]
