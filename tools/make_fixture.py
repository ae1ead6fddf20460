#!/usr/bin/env python3
"""Build the synthetic test corpus under tests/fixtures/.

The corpus is exactly 1,000 tokens: a designed core vocabulary (function
words, small inflection families, euphonic variant pairs, Latin-script and
alphanumeric tokens, one ambiguous form and one overridden form) padded
with generated Ukrainian-shaped filler forms.  Every post-merge form is
covered by the lemma map, so the threshold=1 degeneracy of concentration
indices holds.  One sentence per line, sentence-initial capitalization,
some attached commas, quotes and free-standing dashes.  Deterministic:
a fixed seed reproduces the files byte for byte.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
SEED = 186856
TOTAL_TOKENS = 1000

# (pre-merge folded form, count); "у" merges into "в", "й" into "і"
CORE = [
    ("і", 40), ("й", 12),
    ("в", 30), ("у", 15),
    ("не", 38), ("на", 35), ("що", 30), ("він", 28), ("з", 26), ("як", 24),
    ("та", 22), ("до", 20), ("пан", 18), ("було", 16), ("день", 15),
    ("рука", 14), ("очі", 13), ("себе", 12), ("ж", 9), ("б", 8),
    ("дорога", 7), ("стежка", 6), ("дивиться", 6), ("слова", 6), ("місто", 6),
    ("стежки", 5), ("дивився", 5), ("робить", 5), ("слово", 5),
    ("дороги", 4), ("робив", 4), ("міста", 4), ("die", 4),
    ("стежок", 3), ("робила", 3), ("м’ята", 3), ("in", 3),
    ("дивилася", 2), ("перехресні", 2), ("stadt", 2), ("1848", 2),
    ("60-ий", 1), ("§136", 1),
]

CORE_LEMMAS = {
    "і": "і", "в": "в", "не": "не", "на": "на", "він": "він", "з": "з",
    "та": "та", "до": "до", "пан": "пан", "було": "бути", "день": "день",
    "рука": "рука", "очі": "око", "себе": "себе", "ж": "ж", "б": "б",
    "дорога": "дорога", "дороги": "дорога",
    "стежка": "стежка", "стежки": "стежка", "стежок": "стежка",
    "дивиться": "дивитися", "дивився": "дивитися", "дивилася": "дивитися",
    "робить": "робити", "робив": "робити", "робила": "робити",
    "слово": "слово", "слова": "слово",
    "місто": "місто", "міста": "місто",
    "м’ята": "м’ята", "перехресні": "перехресний",
    "die": "die", "in": "in", "stadt": "stadt",
    "1848": "1848", "60-ий": "60-ий", "§136": "§136",
}

# ambiguous form: routed by shares; overridden form: pinned counts
AMBIGUOUS = ("що", (("що_сполучник", 0.7), ("що_займенник", 0.3)))
OVERRIDES = [("як", "як_сполучник", 17), ("як", "як_прислівник", 7)]

ONSETS = "бвгджзклмнпрстхчш"
VOWELS = "аеиіоуюя"
CODAS = "врнстминх"


def make_filler_forms(rng: random.Random, taken: set[str], budget: int):
    """Generate (form, count) filler entries summing exactly to budget."""
    entries = []
    while budget > 0:
        n_syll = rng.choice((1, 2, 2, 3, 3, 4))
        parts = []
        for _ in range(n_syll):
            parts.append(rng.choice(ONSETS) + rng.choice(VOWELS))
        if rng.random() < 0.4:
            parts.append(rng.choice(CODAS))
        form = "".join(parts)
        if form in taken:
            continue
        taken.add(form)
        count = min(rng.choice((1, 1, 1, 1, 1, 1, 2, 2, 3, 4)), budget)
        entries.append((form, count))
        budget -= count
    return entries


def upper_first(form: str) -> str:
    return form[0].upper() + form[1:]


def starts_with_letter(form: str) -> bool:
    return form[0].isalpha()


def build_sentences(rng: random.Random, bag: list[str]) -> list[str]:
    """Arrange the shuffled token bag into rendered one-per-line sentences."""
    lines = []
    i = 0
    while i < len(bag):
        length = min(rng.randint(5, 12), len(bag) - i)
        sentence = bag[i:i + length]
        i += length
        # sentences open with a letter-initial capitalized token
        if not starts_with_letter(sentence[0]):
            for j in range(1, len(sentence)):
                if starts_with_letter(sentence[j]):
                    sentence[0], sentence[j] = sentence[j], sentence[0]
                    break
        rendered = []
        for pos, form in enumerate(sentence):
            word = upper_first(form) if pos == 0 else form
            if rng.random() < 0.02:
                word = f"«{word}»"
            if pos < len(sentence) - 1 and rng.random() < 0.08:
                word += ","
            rendered.append(word)
            if pos < len(sentence) - 1 and rng.random() < 0.02:
                rendered.append("—")
        terminator = rng.choice("..!.?.")
        lines.append(" ".join(rendered) + terminator)
    return lines


def main() -> int:
    rng = random.Random(SEED)
    core_sum = sum(c for _, c in CORE)
    taken = {form for form, _ in CORE}
    fillers = make_filler_forms(rng, taken, TOTAL_TOKENS - core_sum)
    spectrum = CORE + fillers
    assert sum(c for _, c in spectrum) == TOTAL_TOKENS

    bag = [form for form, count in spectrum for _ in range(count)]
    rng.shuffle(bag)
    lines = build_sentences(rng, bag)

    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    (FIXTURE_DIR / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    merge_lines = ["в\tв,у", "і\tі,й"]
    (FIXTURE_DIR / "merges.tsv").write_text("\n".join(merge_lines) + "\n", encoding="utf-8")

    lemma_lines = []
    for form, lemma in CORE_LEMMAS.items():
        lemma_lines.append(f"{form}\t{lemma}")
    amb_form, splits = AMBIGUOUS
    for lemma, share in splits:
        lemma_lines.append(f"{amb_form}\t{lemma}\t{share}")
    for form, _ in fillers:
        lemma_lines.append(f"{form}\t{form}")
    (FIXTURE_DIR / "lemmas.tsv").write_text("\n".join(lemma_lines) + "\n", encoding="utf-8")

    override_lines = [f"{form}\t{lemma}\t{count}" for form, lemma, count in OVERRIDES]
    (FIXTURE_DIR / "overrides.tsv").write_text(
        "\n".join(override_lines) + "\n", encoding="utf-8"
    )

    (FIXTURE_DIR / "run.ini").write_text(
        "[paths]\n"
        "text = corpus.txt\n"
        "lemma_map = lemmas.tsv\n"
        "merge_rules = merges.tsv\n"
        "overrides = overrides.tsv\n"
        "output_dir = out\n"
        "\n"
        "[analysis]\n"
        "threshold = 10\n"
        "top_k = 10\n"
        "\n"
        "[fits]\n"
        "models = PhonemeGamma,ShiftedMenzerath,MeanSyllablePower,ZipfPower,"
        "ZipfMandelbrot,LogCoverage\n"
        "zipf_breakpoints = 1:30,30:100,100:end\n"
        "coverage_breakpoints = 1:30,30:100,100:end\n",
        encoding="utf-8",
    )

    # sanity: the rendered text must re-tokenize to the designed multiset
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from textlaws import build_form_spectrum, split_sentences, tokenize

    text = (FIXTURE_DIR / "corpus.txt").read_text(encoding="utf-8")
    tokens = tokenize(text)
    lex = build_form_spectrum(tokens)
    assert lex.total_tokens == TOTAL_TOKENS, lex.total_tokens
    assert lex.entries == dict(spectrum), "re-tokenized spectrum differs"
    assert len(split_sentences(text)) == len(lines)
    print(f"fixture: {TOTAL_TOKENS} tokens, {len(spectrum)} forms, {len(lines)} sentences")
    return 0


if __name__ == "__main__":
    sys.exit(main())
