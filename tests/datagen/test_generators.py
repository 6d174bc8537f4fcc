"""Synthetic corpora: determinism, keyword planting, structure."""

from repro.datagen.plays import PlaysConfig, generate_corpus as generate_plays
from repro.datagen.rng import derive_seed, stream
from repro.datagen.shakespeare import (
    ShakespeareConfig,
    generate_corpus as generate_shakespeare,
)
from repro.datagen.sigmod import SigmodConfig, generate_corpus as generate_sigmod
from repro.xmlkit import serialize


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_derive_seed_sensitive_to_labels(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_stream_reproducible(self):
        assert stream(5, "x").random() == stream(5, "x").random()


class TestShakespeareGenerator:
    def test_deterministic(self):
        first = generate_shakespeare(ShakespeareConfig(plays=2))
        second = generate_shakespeare(ShakespeareConfig(plays=2))
        assert [serialize(d) for d in first] == [serialize(d) for d in second]

    def test_scaling_extends_prefix(self):
        small = generate_shakespeare(ShakespeareConfig(plays=2))
        large = generate_shakespeare(ShakespeareConfig(plays=4))
        assert serialize(small[0]) == serialize(large[0])
        assert serialize(small[1]) == serialize(large[1])

    def test_scaled_config(self):
        config = ShakespeareConfig(plays=3).scaled(4)
        assert config.plays == 12
        assert config.seed == ShakespeareConfig().seed

    def test_romeo_and_juliet_present(self, shakespeare_docs):
        titles = [doc.root.find("TITLE").text_content() for doc in shakespeare_docs]
        assert any("Romeo and Juliet" in t for t in titles)

    def test_romeo_speaks_in_romeo_and_juliet(self, shakespeare_docs):
        for doc in shakespeare_docs:
            title = doc.root.find("TITLE").text_content()
            if "Romeo and Juliet" in title:
                speakers = {s.text_content() for s in doc.iter("SPEAKER")}
                assert "ROMEO" in speakers
                return
        raise AssertionError("corpus lacks Romeo and Juliet")

    def test_workload_keywords_planted(self, shakespeare_docs):
        text = " ".join(serialize(doc) for doc in shakespeare_docs)
        for keyword in ("love", "friend", "Rising"):
            assert keyword in text, keyword

    def test_prologues_have_multi_line_speeches(self, shakespeare_docs):
        # QS6 needs second lines inside prologue speeches
        for doc in shakespeare_docs:
            for prologue in doc.iter("PROLOGUE"):
                for speech in prologue.find_all("SPEECH"):
                    if len(speech.find_all("LINE")) >= 2:
                        return
        raise AssertionError("no prologue speech with a second line")

    def test_stagedirs_nested_in_lines(self, shakespeare_docs):
        nested = [
            sd
            for doc in shakespeare_docs
            for line in doc.iter("LINE")
            for sd in line.find_all("STAGEDIR")
        ]
        assert nested, "QS2 needs stage directions inside lines"

    def test_all_element_types_occur(self, shakespeare_docs):
        seen = set()
        for doc in shakespeare_docs:
            for node in doc.iter():
                seen.add(node.tag)
        assert seen >= {
            "PLAY", "TITLE", "FM", "P", "PERSONAE", "PGROUP", "PERSONA",
            "GRPDESCR", "SCNDESCR", "PLAYSUBT", "ACT", "SCENE", "PROLOGUE",
            "SPEECH", "SPEAKER", "LINE", "STAGEDIR", "SUBTITLE",
        }


class TestSigmodGenerator:
    def test_deterministic(self):
        first = generate_sigmod(SigmodConfig(documents=2))
        second = generate_sigmod(SigmodConfig(documents=2))
        assert [serialize(d) for d in first] == [serialize(d) for d in second]

    def test_structure_counts(self):
        (doc,) = generate_sigmod(SigmodConfig(documents=1))
        assert doc.root.tag == "PP"
        assert len(doc.root.find("sList").find_all("sListTuple")) == 3
        assert len(list(doc.iter("aTuple"))) == 3 * 5

    def test_keywords_planted(self, sigmod_docs):
        text = " ".join(serialize(doc) for doc in sigmod_docs)
        for keyword in ("Join", "Worthy", "Bird"):
            assert keyword in text, keyword

    def test_author_positions_attributed(self, sigmod_docs):
        first = next(sigmod_docs[0].iter("author"))
        assert first.get("AuthorPosition") == "01"

    def test_some_articles_have_second_authors(self, sigmod_docs):
        # QG6 needs position-2 authors
        for doc in sigmod_docs:
            for authors in doc.iter("authors"):
                if len(authors.find_all("author")) >= 2:
                    return
        raise AssertionError("no multi-author paper generated")

    def test_pages_monotonic_within_issue(self, sigmod_docs):
        for doc in sigmod_docs[:3]:
            starts = [int(p.text_content()) for p in doc.iter("initPage")]
            assert starts == sorted(starts)


class TestPlaysGenerator:
    def test_deterministic(self):
        first = generate_plays(PlaysConfig(plays=2))
        second = generate_plays(PlaysConfig(plays=2))
        assert [serialize(d) for d in first] == [serialize(d) for d in second]

    def test_hamlet_and_friend_for_qe1(self, plays_docs):
        text = " ".join(serialize(doc) for doc in plays_docs)
        assert "HAMLET" in text
        assert "friend" in text

    def test_speeches_directly_under_acts(self, plays_docs):
        direct = [
            speech
            for doc in plays_docs
            if doc.root.tag == "PLAY"
            for act in doc.root.find_all("ACT")
            for speech in act.find_all("SPEECH")
        ]
        assert direct, "QE1 joins speeches to acts directly"
