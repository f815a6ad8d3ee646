"""Porter stemmer and Soundex kernels.

Porter pairs come from the published algorithm's own examples
(Porter 1980, "An algorithm for suffix stripping", steps 1a-5b);
Soundex codes are hand-derived under the repo's frozen simplified
variant (h/w NOT transparent — documented in soundex_batch) and match
classic American Soundex wherever transparency doesn't bite.
"""

import numpy as np
import pandas as pd
import pytest

from pdf_extract_ray.functions.stemmer import porter_stem, stem_words_batch
from pdf_extract_ray.functions.text import soundex_batch


# (word, stem) pairs lifted from the published step-by-step examples
PORTER_PAIRS = [
    # step 1a
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("caress", "caress"), ("cats", "cat"),
    # step 1b (+ cleanup)
    ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
    ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
    ("conflated", "conflat"), ("troubled", "troubl"), ("sized", "size"),
    ("hopping", "hop"), ("tanned", "tan"), ("falling", "fall"),
    ("hissing", "hiss"), ("fizzed", "fizz"), ("failing", "fail"),
    ("filing", "file"),
    # step 1c
    ("happy", "happi"), ("sky", "sky"),
    # step 2
    ("relational", "relat"), ("conditional", "condit"),
    ("rational", "ration"), ("valenci", "valenc"),
    ("hesitanci", "hesit"), ("digitizer", "digit"),
    ("radicalli", "radic"), ("differentli", "differ"),
    ("vileli", "vile"), ("analogousli", "analog"),
    ("vietnamization", "vietnam"), ("predication", "predic"),
    ("operator", "oper"), ("feudalism", "feudal"),
    ("decisiveness", "decis"), ("hopefulness", "hope"),
    ("callousness", "callous"), ("formaliti", "formal"),
    ("sensitiviti", "sensit"), ("sensibiliti", "sensibl"),
    # step 3
    ("triplicate", "triplic"), ("formative", "form"),
    ("formalize", "formal"), ("electriciti", "electr"),
    ("electrical", "electr"), ("hopeful", "hope"),
    ("goodness", "good"),
    # step 4
    ("revival", "reviv"), ("allowance", "allow"),
    ("inference", "infer"), ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"), ("adjustable", "adjust"),
    ("defensible", "defens"), ("irritant", "irrit"),
    ("replacement", "replac"), ("adjustment", "adjust"),
    ("dependent", "depend"), ("adoption", "adopt"),
    ("homologou", "homolog"), ("communism", "commun"),
    ("activate", "activ"), ("angulariti", "angular"),
    ("homologous", "homolog"), ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    # step 5
    ("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
    ("controll", "control"), ("roll", "roll"),
    # length <= 2 convention
    ("is", "is"), ("a", "a"), ("", ""),
]


@pytest.mark.parametrize("word,expected", PORTER_PAIRS)
def test_porter_published_pairs(word, expected):
    assert porter_stem(word) == expected


def test_stem_words_batch_matches_scalar():
    words = [w for w, _ in PORTER_PAIRS]
    assert stem_words_batch(words) == [porter_stem(w) for w in words]


def test_porter_never_lengthens_beyond_one():
    # 1b-cleanup can add back one 'e' (conflat+e) but a stem is never
    # more than one char longer than its pre-step residue and never
    # longer than the input word itself for len >= 3 inputs
    for w, s in PORTER_PAIRS:
        if len(w) >= 3:
            assert len(s) <= len(w), (w, s)


# -- Soundex (frozen simplified variant; h/w NOT transparent) -----------

SOUNDEX_CODES = [
    ("robert", "R163"), ("rupert", "R163"), ("tymczak", "T522"),
    ("pfister", "P236"), ("honeyman", "H555"), ("jackson", "J250"),
    ("washington", "W252"), ("lee", "L000"), ("gutierrez", "G362"),
    # transparency case: classic gives A261; the frozen variant keeps
    # the h as a run-breaking zero -> A226 (documented deviation)
    ("ashcraft", "A226"),
]


def test_soundex_known_codes():
    s = pd.Series([w for w, _ in SOUNDEX_CODES])
    got = soundex_batch(s).tolist()
    assert got == [c for _, c in SOUNDEX_CODES]


def test_soundex_empty_is_null():
    out = soundex_batch(pd.Series(["", "ab"]))
    assert pd.isna(out.iloc[0])
    assert out.iloc[1] == "A100"


def test_soundex_plain_loop_equivalence():
    # independent per-word reference of the same frozen rule
    import re

    def ref(w):
        if not w:
            return None
        classes = [("[bfpv]", "1"), ("[cgjkqsxz]", "2"), ("[dt]", "3"),
                   ("l", "4"), ("[mn]", "5"), ("r", "6"),
                   ("[aeiouyhw]", "0")]
        code = w
        for pat, rep in classes:
            code = re.sub(pat, rep, code)
        code = re.sub(r"(.)\1+", r"\1", code)
        tail = code[1:].replace("0", "")
        return w[0].upper() + (tail + "000")[:3]

    rng = np.random.default_rng(7)
    alpha = "abcdefghijklmnopqrstuvwxyz"
    words = ["".join(rng.choice(list(alpha), size=rng.integers(1, 12)))
             for _ in range(300)]
    got = soundex_batch(pd.Series(words)).tolist()
    assert got == [ref(w) for w in words]
