"""Deterministic synthetic Ukrainian-shaped corpora with designed counts.

Each workload is built from one seed: a vocabulary of inflected lemmas
(stems of consonant-vowel syllables plus paradigm endings, some with
apostrophe or hyphen joiners), a fixed core of function words, Latin,
digit and section-sign tokens, and a Zipf-Mandelbrot filler drawn over the
vocabulary.  The generator knows every token it writes, so N, F, V, the
sentence count and the mapped-token total are recorded here without
calling textlaws; the bundle check compares the analysis against them.

The rendered text uses the tokenizer's other paths: «» quotes, free-standing
dashes, dialogue dashes, a mid-sentence "…", attached commas, and the
abbreviation "т." followed by a capital.  Combining stress marks are left
out: the designed counts follow UAX #29, which the tokenizer does not yet.
No form starts or ends with a joiner.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

ALL_MODELS = (
    "PhonemeGamma",
    "ShiftedMenzerath",
    "MeanSyllablePower",
    "MeanSyllableExp",
    "ZipfPower",
    "ZipfMandelbrot",
    "LogCoverage",
)

# Models fitted by damped least squares; each writes fitcurve_<model>.dat.
LM_MODELS = tuple(m for m in ALL_MODELS if m not in ("ZipfPower", "LogCoverage"))


@dataclass(frozen=True)
class WorkloadSpec:
    tokens: int          # designed N of one text
    vocab: int           # candidate filler forms, all in the lemma map
    exponent: float      # Zipf-Mandelbrot exponent of the filler draw
    texts: int           # analyze runs per batch, all sharing one lemma map
    rank_basis: str      # lemmas | forms


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "novel_1m": WorkloadSpec(1_000_000, 40_000, 1.05, 1, "lemmas"),
    "wide_vocab": WorkloadSpec(200_000, 150_000, 0.6, 1, "forms"),
    "chapters": WorkloadSpec(5_000, 40_000, 1.05, 100, "lemmas"),
}

MANDELBROT_SHIFT = 2.7
MIN_SENTENCE, MAX_SENTENCE = 5, 20
UNKNOWN_LEMMA_SHARE = 0.02

# (pre-merge form, tokens per thousand, lemma); lemma None = not in the map.
# "у" merges into "в" and "й" into "і"; "що" is ambiguous and "як" is
# pinned by overrides, so neither has a plain row.
CORE = (
    ("і", 30, "і"), ("й", 8, None), ("в", 22, "в"), ("у", 12, None),
    ("не", 18, "не"), ("на", 16, "на"), ("що", 14, None), ("він", 12, "він"),
    ("з", 12, "з"), ("як", 10, None), ("та", 9, "та"), ("до", 8, "до"),
    ("це", 7, "це"), ("вона", 6, "вона"), ("було", 5, "бути"), ("т", 2, "т"),
    ("die", 1, "die"), ("und", 1, None), ("stadt", 1, "stadt"),
    ("1848", 1, "1848"), ("§136", 1, "§136"), ("60-ий", 1, "60-ий"),
    ("м’ята", 1, "м’ята"), ("будь-що", 1, "будь-що"),
)
MERGES = (("в", ("в", "у")), ("і", ("і", "й")))
AMBIGUOUS = ("що", (("що_сполучник", 0.7), ("що_займенник", 0.3)))
OVERRIDDEN = ("як", (("як_сполучник", 6), ("як_прислівник", 3)))  # tenths pinned
ABBREVIATION = "т"

ONSETS = "бвгджзклмнпрстфхцчшщ"
VOWELS = "аеиіоуяюєї"
CODAS = "врнстмлкх"
JOINED_SYLLABLES = ("б’я", "п’ю", "в’я", "м’я", "ф’є")
PARADIGMS = (
    ("", "а", "у", "ом", "і", "ів", "ами", "ах"),
    ("ти", "ю", "еш", "е", "емо", "ла", "ли", "в"),
    ("ий", "а", "е", "ого", "ому", "ою", "і", "их"),
)
TERMINATORS = ".....!?…"


@dataclass
class DesignedText:
    """One analyze input and the counts its bundle must report."""

    config: Path
    N: int
    F: int
    V: int
    sentences: int
    mapped_tokens: int
    rank_total: int
    lemma_map_rows: int

    @property
    def mean_sentence_len(self) -> float:
        return self.N / self.sentences


@dataclass
class Vocabulary:
    ranked: list[str]                    # filler forms in Zipf rank order
    lemma_of: dict[str, str]             # every filler form of a known lemma


def make_vocabulary(rng: random.Random, size: int) -> Vocabulary:
    """Inflected filler forms; about 2% of lemmas are absent from the map."""
    taken = {form for form, _, _ in CORE}
    forms: list[str] = []
    lemma_of: dict[str, str] = {}
    while len(forms) < size:
        syllables = [
            rng.choice(JOINED_SYLLABLES) if rng.random() < 0.03
            else rng.choice(ONSETS) + rng.choice(VOWELS)
            for _ in range(rng.choice((1, 2, 2, 3, 3)))
        ]
        stem = "".join(syllables) + (rng.choice(CODAS) if rng.random() < 0.5 else "")
        if rng.random() < 0.01:
            stem = rng.choice(("будь", "казна", "по")) + "-" + stem
        endings = rng.sample(rng.choice(PARADIGMS), rng.randint(3, 8))
        paradigm = [stem + e for e in endings if stem + e not in taken]
        if not paradigm:
            continue
        is_known = rng.random() >= UNKNOWN_LEMMA_SHARE
        for form in paradigm[: size - len(forms)]:
            taken.add(form)
            forms.append(form)
            if is_known:
                lemma_of[form] = paradigm[0]
    rng.shuffle(forms)
    return Vocabulary(forms, lemma_of)


def core_counts(n_tokens: int) -> dict[str, int]:
    return {form: max(1, n_tokens * per_mille // 1000) for form, per_mille, _ in CORE}


def override_rows(n_tokens: int) -> list[tuple[str, str, int]]:
    count = core_counts(n_tokens)[OVERRIDDEN[0]]
    return [(OVERRIDDEN[0], lemma, count * tenths // 10) for lemma, tenths in OVERRIDDEN[1]]


def draw_bag(rng: random.Random, vocab: Vocabulary, n_tokens: int, exponent: float) -> list[str]:
    """Shuffled multiset of folded forms: fixed core counts plus Zipf filler."""
    bag = [form for form, count in core_counts(n_tokens).items() for _ in range(count)]
    weights = [(rank + MANDELBROT_SHIFT) ** -exponent for rank in range(1, len(vocab.ranked) + 1)]
    bag += rng.choices(vocab.ranked, cum_weights=list(accumulate(weights)), k=n_tokens - len(bag))
    rng.shuffle(bag)
    return bag


def _upper_first(word: str) -> str:
    return word[0].upper() + word[1:]


def render(rng: random.Random, bag: list[str]) -> tuple[str, int]:
    """Lay the bag out as sentences; returns the text and its sentence count.

    Reorders ``bag`` in place: only the multiset of forms is designed.

    Every sentence opens with a capitalized letter-initial word and ends in
    a terminator followed by whitespace (or the end of the text), so each
    one is a sentence boundary and nothing inside a sentence is.
    """
    # an alphabetic last token lets the final sentence always find an opener
    last_alpha = next(k for k in reversed(range(len(bag))) if bag[k][0].isalpha())
    bag[last_alpha], bag[-1] = bag[-1], bag[last_alpha]
    out: list[str] = []
    sentences = 0
    i = 0
    while i < len(bag):
        end = min(i + rng.randint(MIN_SENTENCE, MAX_SENTENCE), len(bag))
        while not any(w[0].isalpha() for w in bag[i:end]):
            end += 1  # digit-only tail: extend until a word can open it
        words = bag[i:end]
        i = end
        first = next(k for k, w in enumerate(words) if w[0].isalpha())
        words[0], words[first] = words[first], words[0]

        parts = []
        capital = True
        for pos, form in enumerate(words):
            word = _upper_first(form) if capital else form
            capital = False
            last = pos == len(words) - 1
            if rng.random() < 0.02:
                word = f"«{word}»"
            if form == ABBREVIATION and not last:
                word += "."
                capital = True
            elif not last:
                roll = rng.random()
                if roll < 0.08:
                    word += ","
                elif roll < 0.085:
                    word += "…"
                elif roll < 0.105:
                    word += " —"
            parts.append(word)
        # a "." right after the abbreviation would not end the sentence
        terminator = "!" if words[-1] == ABBREVIATION else rng.choice(TERMINATORS)
        sentence = " ".join(parts) + terminator
        style = rng.random()
        if style < 0.05:
            sentence = "— " + sentence
        elif style < 0.08:
            sentence = f"«{sentence}»"
        out.append(sentence)
        out.append("\n" if rng.random() < 0.1 else " ")
        sentences += 1
    return "".join(out[:-1]) + "\n", sentences


def designed_counts(bag: list[str], vocab: Vocabulary, rank_basis: str) -> dict[str, int]:
    """N, F, V and mapped tokens exactly as the analysis must find them."""
    counts = Counter(bag)
    for canonical, variants in MERGES:
        for form in variants:
            if form != canonical:
                counts[canonical] += counts.pop(form, 0)
    core_lemma = {form: lemma for form, _, lemma in CORE}
    lemmas: set[str] = set()
    unmapped = 0
    for form, count in counts.items():
        lemma = core_lemma.get(form) or vocab.lemma_of.get(form)
        if form == OVERRIDDEN[0]:
            pinned = override_rows(len(bag))
            lemmas.update(lemma for _, lemma, c in pinned if c)
            unmapped += count - sum(c for _, _, c in pinned)
        elif form == AMBIGUOUS[0]:
            # a largest-remainder split of two or more tokens between two
            # shares gives each share at least one token
            if count < 2:
                raise ValueError(f"{form!r} needs at least 2 tokens, has {count}")
            lemmas.update(lemma for lemma, _ in AMBIGUOUS[1])
        elif lemma is not None:
            lemmas.add(lemma)
        else:
            unmapped += count
    mapped = len(bag) - unmapped
    return {
        "N": len(bag),
        "F": len(counts),
        "V": len(lemmas),
        "mapped_tokens": mapped,
        "rank_total": len(bag) if rank_basis == "forms" else mapped,
    }


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_resources(directory: Path, vocab: Vocabulary, n_tokens: int) -> int:
    """Lemma map, merge rules and overrides; returns the lemma-map row count."""
    rows = [f"{form}\t{lemma}" for form, _, lemma in CORE if lemma is not None]
    rows += [f"{AMBIGUOUS[0]}\t{lemma}\t{share}" for lemma, share in AMBIGUOUS[1]]
    rows += [f"{form}\t{lemma}" for form, lemma in vocab.lemma_of.items()]
    _write_lines(directory / "lemmas.tsv", rows)
    _write_lines(
        directory / "merges.tsv",
        (f"{canonical}\t{','.join(variants)}" for canonical, variants in MERGES),
    )
    _write_lines(
        directory / "overrides.tsv",
        (f"{form}\t{lemma}\t{count}" for form, lemma, count in override_rows(n_tokens)),
    )
    return len(rows)


def run_ini(text: str, rank_basis: str) -> str:
    return (
        "[paths]\n"
        f"text = {text}\n"
        "lemma_map = lemmas.tsv\n"
        "merge_rules = merges.tsv\n"
        "overrides = overrides.tsv\n"
        "output_dir = out\n"
        "\n"
        "[tokenizer]\n"
        f"abbreviations = {ABBREVIATION}\n"
        "\n"
        "[analysis]\n"
        f"rank_basis = {rank_basis}\n"
        "\n"
        "[fits]\n"
        f"models = {','.join(ALL_MODELS)}\n"
    )


def make_workload(name: str, seed: int, directory: Path, spec: WorkloadSpec | None = None) -> list[DesignedText]:
    """Write the workload's inputs under ``directory``; one entry per text."""
    spec = spec or WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    vocab = make_vocabulary(rng, spec.vocab)
    map_rows = write_resources(directory, vocab, spec.tokens)
    texts = []
    for k in range(spec.texts):
        stem = f"text{k:03d}"
        bag = draw_bag(rng, vocab, spec.tokens, spec.exponent)
        text, n_sentences = render(rng, bag)
        (directory / f"{stem}.txt").write_text(text, encoding="utf-8")
        config = directory / f"{stem}.ini"
        config.write_text(run_ini(f"{stem}.txt", spec.rank_basis), encoding="utf-8")
        texts.append(DesignedText(
            config=config, sentences=n_sentences, lemma_map_rows=map_rows,
            **designed_counts(bag, vocab, spec.rank_basis),
        ))
    return texts
