"""Normalization, tokenization, and prefix canonicalization."""

import random

import pytest

from termbridge.core import CodeRef
from termbridge.errors import DataError
from termbridge.ingest import default_code_dictionary
from termbridge.lexical import (
    Lemmatize,
    NormalizationDictionary,
    TokenizerConfig,
    canonicalize_code,
    normalize_string,
    tokenize,
)


@pytest.fixture(scope="module")
def vocab_dict():
    return NormalizationDictionary(
        [
            ("SNOMEDCT_US", "SNOMED"),
            ("SNOMED-CT", "SNOMED"),
            ("sctid", "SNOMED"),
            ("UMLS", "UMLS"),
            ("lnc", "LOINC"),
        ]
    )


class TestCanonicalizeCode:
    def test_sctid_prefix(self, vocab_dict):
        assert canonicalize_code("sctid:1234567", vocab_dict) == CodeRef("SNOMED", "1234567")

    def test_dashed_prefix(self, vocab_dict):
        assert canonicalize_code("SNOMED-CT:1234567", vocab_dict) == CodeRef("SNOMED", "1234567")

    def test_already_canonical_fixed_point(self, vocab_dict):
        ref = canonicalize_code("UMLS:C0596028", vocab_dict)
        assert ref == CodeRef("UMLS", "C0596028")
        assert canonicalize_code(str(ref), vocab_dict) == ref

    def test_underscore_inside_prefix_with_colon(self, vocab_dict):
        # The colon split must win or SNOMEDCT_US codes shred.
        assert canonicalize_code("SNOMEDCT_US:70305005", vocab_dict) == CodeRef("SNOMED", "70305005")

    def test_underscore_split_without_colon(self, vocab_dict):
        assert canonicalize_code("HP_0011095", vocab_dict) == CodeRef("HP", "0011095")

    def test_hash_split(self, vocab_dict):
        assert canonicalize_code("HP#0011095", vocab_dict) == CodeRef("HP", "0011095")

    def test_bare_code_gets_unknown_prefix(self, vocab_dict):
        assert canonicalize_code("12460-2", vocab_dict) == CodeRef("UNKNOWN", "12460-2")

    def test_code_punctuation_preserved(self, vocab_dict):
        assert canonicalize_code("lnc:12460-2", vocab_dict) == CodeRef("LOINC", "12460-2")

    @pytest.mark.parametrize("raw", ["", "  ", "HP:", "HP:   "])
    def test_empty_code(self, raw, vocab_dict):
        with pytest.raises(DataError) as err:
            canonicalize_code(raw, vocab_dict)
        assert err.value.code == "EMPTY_CODE"

    def test_idempotent_over_random_inputs(self, vocab_dict):
        rng = random.Random(7)
        alphabet = "abcXYZ123:_#-. "
        for _ in range(500):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20)))
            try:
                ref = canonicalize_code(raw, vocab_dict)
            except DataError:
                continue
            assert canonicalize_code(str(ref), vocab_dict) == ref


class TestNormalizationDictionary:
    def test_case_insensitive_lookup(self, vocab_dict):
        assert vocab_dict.canonical_prefix("SnoMedCt_us") == "SNOMED"

    def test_unknown_prefix_uppercased(self, vocab_dict):
        assert vocab_dict.canonical_prefix("weird") == "WEIRD"

    def test_fixed_point_violation_rejected(self):
        with pytest.raises(DataError) as err:
            NormalizationDictionary([("a", "B"), ("b", "A")])
        assert err.value.code == "NOT_FIXED_POINT"

    def test_conflicting_rows_rejected(self):
        with pytest.raises(DataError) as err:
            NormalizationDictionary([("a", "X"), ("A", "Y")])
        assert err.value.code == "CONFLICTING_PREFIX"

    def test_packaged_dictionary_is_fixed_point(self):
        d = default_code_dictionary()
        assert d.canonical_prefix("snomedct_us") == "SNOMED"
        assert d.canonical_prefix("SNOMED") == "SNOMED"


class TestNormalizeString:
    def test_collapse_and_strip(self):
        assert normalize_string("Horizontal  Overbite ") == "horizontal overbite"

    def test_lowercases(self):
        assert normalize_string("Overjet") == "overjet"

    def test_empty_fixed_point(self):
        assert normalize_string("") == ""

    def test_tabs_and_newlines_collapse(self):
        assert normalize_string("a\t b\n\nc") == "a b c"

    def test_idempotent_on_random_unicode(self):
        rng = random.Random(42)
        for _ in range(2000):
            s = "".join(chr(rng.randint(1, 0x2FFF)) for _ in range(rng.randint(0, 24)))
            once = normalize_string(s)
            assert normalize_string(once) == once


class TestTokenize:
    def test_plain_split(self):
        assert tokenize("sore throat symptom", TokenizerConfig()) == ["sore", "throat", "symptom"]

    def test_stopwords_removed(self):
        cfg = TokenizerConfig(stopwords=frozenset({"in", "the"}))
        assert tokenize("pain in the throat", cfg) == ["pain", "throat"]

    def test_suffix_rules_plural(self):
        cfg = TokenizerConfig(lemmatize=Lemmatize.SUFFIX_RULES)
        assert tokenize("fractures", cfg) == ["fracture"]

    @pytest.mark.parametrize(
        "word,expected",
        [
            ("studies", "study"),
            ("boxes", "box"),
            ("classes", "class"),
            ("running", "runn"),
            ("mapped", "mapp"),
            ("gas", "gas"),          # stem would be too short
            ("status", "status"),    # -us guard
            ("diagnosis", "diagnosis"),  # -is guard
        ],
    )
    def test_suffix_rule_table(self, word, expected):
        cfg = TokenizerConfig(lemmatize=Lemmatize.SUFFIX_RULES)
        assert tokenize(word, cfg) == [expected]

    def test_punctuation_boundaries(self):
        assert tokenize("amphetamine [presence] in-urine", TokenizerConfig()) == [
            "amphetamine",
            "presence",
            "in",
            "urine",
        ]

    def test_output_invariants_random(self):
        stop = frozenset({"the", "of", "and"})
        cfg = TokenizerConfig(stopwords=stop, lemmatize=Lemmatize.SUFFIX_RULES)
        rng = random.Random(3)
        pool = ["the", "of", "and", "bone", "fractures", "screening", "a1c", "x", ""]
        for _ in range(500):
            s = normalize_string(" ".join(rng.choice(pool) for _ in range(rng.randint(0, 12))))
            out = tokenize(s, cfg)
            for token in out:
                assert token
                assert token not in stop
                assert token == token.lower()

    def test_stopwords_must_be_lowercase(self):
        with pytest.raises(ValueError):
            TokenizerConfig(stopwords=frozenset({"The"}))
