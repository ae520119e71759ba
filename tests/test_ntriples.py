import pytest
from hypothesis import given, strategies as st

from starbloom.model import Triple, blank, iri, literal
from starbloom.ntriples import NTriplesError, parse_ntriples, serialize_ntriples


def test_single_line():
    g = parse_ntriples("<http://ex/s> <http://ex/p> <http://ex/o> .")
    assert len(g) == 1
    t = next(iter(g))
    assert (t.s.lexical, t.p.lexical, t.o.lexical) == ("http://ex/s", "http://ex/p", "http://ex/o")


def test_empty_input():
    assert len(parse_ntriples("")) == 0
    assert len(parse_ntriples("\n  \n# comment only\n")) == 0


def test_duplicate_lines_collapse():
    line = "<http://ex/s> <http://ex/p> <http://ex/o> ."
    g = parse_ntriples(f"{line}\n{line}\n")
    # oracle: dedupe by string equality
    assert len(g) == len({line})


def test_literals_language_and_datatype():
    text = (
        '<http://ex/s> <http://ex/p> "hej"@da .\n'
        '<http://ex/s> <http://ex/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        '<http://ex/s> <http://ex/p> "a\\"b\\nc" .\n'
    )
    g = parse_ntriples(text)
    objs = {t.o for t in g}
    assert literal("hej", lang="da") in objs
    assert literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer") in objs
    assert literal('a"b\nc') in objs


def test_blank_nodes():
    g = parse_ntriples("_:b0 <http://ex/p> _:b1 .")
    t = next(iter(g))
    assert t.s.kind == "blank" and t.o.kind == "blank"


@pytest.mark.parametrize("line,label", [
    ("<http://ex/s> <http://ex/p> _:b1.", "b1"),  # the '.' ends the triple
    ("<http://ex/s> <http://ex/p> _:a.b .", "a.b"),
], ids=["dot-ends-triple", "inner-dot"])
def test_blank_node_label_dots(line, label):
    t = next(iter(parse_ntriples(line)))
    assert t.o == blank(label)


@pytest.mark.parametrize("line,fragment", [
    ("<http://ex/s> <http://ex/p> <http://ex/o>", "missing terminating"),
    ("<http://ex/s> <http://ex/p> \"open .", "unterminated literal"),
    ("<http://ex/s> <http://ex/p> .", "unexpected character"),
    ("<relative> <http://ex/p> <http://ex/o> .", "not absolute"),
    ('"lit" <http://ex/p> <http://ex/o> .', "subject"),
    ("<http://ex/s> _:b <http://ex/o> .", "predicate"),
    ('<http://ex/s> <http://ex/p> "\\u+041" .', "bad unicode escape"),
    ('<http://ex/s> <http://ex/p> "\\u 041" .', "bad unicode escape"),
    ('<http://ex/s> <http://ex/p> "\\u0_41" .', "bad unicode escape"),
    ('<http://ex/s> <http://ex/p> "\\U80000000" .', "bad unicode escape"),
    ('<http://ex/s> <http://ex/p> "x"@1- .', "malformed language tag"),
    ("<http://ex/s> <http://ex/p> <http://ex/o\tx> .", "malformed IRI"),
])
def test_errors_carry_line_numbers(line, fragment):
    with pytest.raises(NTriplesError) as err:
        parse_ntriples("<http://ex/a> <http://ex/p> <http://ex/b> .\n" + line)
    assert "line 2" in str(err.value)
    assert fragment in str(err.value)


terms = st.one_of(
    st.integers(0, 30).map(lambda i: iri(f"http://ex/r{i}")),
    st.text(alphabet=st.characters(codec="utf-8", exclude_categories=("Cs", "Cc")),
            max_size=12).map(literal),
)
subjects = st.integers(0, 20).map(lambda i: iri(f"http://ex/s{i}"))
predicates = st.integers(0, 8).map(lambda i: iri(f"http://ex/p{i}"))


@given(st.sets(st.tuples(subjects, predicates, terms), max_size=40))
def test_round_trip(triple_parts):
    g = parse_ntriples(serialize_ntriples(Triple(*t) for t in triple_parts))
    assert g.triples == frozenset(Triple(*t) for t in triple_parts)
    # serialization is canonical: parse -> serialize is a fixpoint
    assert serialize_ntriples(g) == serialize_ntriples(parse_ntriples(serialize_ntriples(g)))


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])
def test_line_separators_in_literals_round_trip(separator):
    triple = Triple(iri("http://ex/s"), iri("http://ex/p"), literal(f"a{separator}b"))
    text = serialize_ntriples([triple])
    assert separator in text  # written raw, not escaped
    assert parse_ntriples(text).triples == frozenset([triple])
