import pytest

from helpers import AUTH, CAP, CUR, LANG, NAT, PUB, RUNNING_QUERY
from starbloom.model import Term, Variable
from starbloom.sparql import (QueryParseError, UnsupportedFeatureError,
                              parse_query)


def test_running_query_shape():
    q = parse_query(RUNNING_QUERY)
    assert len(q.bgp) == 6
    assert q.distinct is False
    assert q.projection is None
    preds = {tp.p.lexical for tp in q.bgp}
    assert preds == {NAT, AUTH, CAP, CUR, PUB, LANG}


def test_comments_are_ignored():
    q = parse_query("""
        PREFIX dbo: <http://dbpedia.org/ontology/>
        SELECT * WHERE {
          ?person dbo:nationality ?country . # tp1 (P1)
          ?country dbo:capital ?capital .    # tp3 (P2)
        }
    """)
    assert len(q.bgp) == 2


def test_select_distinct_single_variable():
    q = parse_query("SELECT DISTINCT ?s WHERE { ?s <http://ex/p> ?o . }")
    assert q.distinct is True
    assert q.projection == ("s",)
    assert len(q.bgp) == 1


def test_unsupported_keywords():
    for kw in ("OPTIONAL", "FILTER", "UNION"):
        with pytest.raises(UnsupportedFeatureError) as err:
            parse_query(
                "SELECT * WHERE { ?s <http://ex/p> ?o . %s { ?s <http://ex/q> ?x . } }" % kw)
        assert err.value.keyword == kw


def test_literals_and_numbers():
    q = parse_query('SELECT * WHERE { ?s <http://ex/p> "name"@en . '
                    '?s <http://ex/q> 42 . }')
    objs = {tp.o for tp in q.bgp if isinstance(tp.o, Term)}
    assert any(o.lang == "en" for o in objs)
    assert any(o.lexical == "42" and o.datatype and o.datatype.endswith("integer")
               for o in objs)


def test_duplicate_patterns_collapse():
    q = parse_query("SELECT * WHERE { ?s <http://ex/p> ?o . ?s <http://ex/p> ?o . }")
    assert len(q.bgp) == 1


def test_projection_must_bind():
    with pytest.raises(ValueError):
        parse_query("SELECT ?zzz WHERE { ?s <http://ex/p> ?o . }")


def test_unknown_prefix():
    with pytest.raises(QueryParseError):
        parse_query("SELECT * WHERE { ?s dbo:p ?o . }")


def test_variable_predicate_allowed():
    q = parse_query("SELECT * WHERE { ?s ?p ?o . }")
    assert isinstance(q.bgp[0].p, Variable)


def _literal(text: str) -> Term:
    return parse_query('SELECT * WHERE { ?s <http://ex/p> %s . }' % text).bgp[0].o


def test_non_ascii_literal_kept():
    assert _literal('"café"').lexical == "café"
    assert _literal('"日本"@ja').lexical == "日本"


@pytest.mark.parametrize("escaped, decoded", [
    (r'"a\"b"', 'a"b'), (r'"a\\b"', "a\\b"), (r'"a\nb"', "a\nb"),
    (r'"a\rb"', "a\rb"), (r'"a\tb"', "a\tb"), (r'"caf\u00e9"', "café"),
    (r'"\U0001F600"', "\U0001F600"), (r'"a\bb"', "a\bb"), (r'"a\fb"', "a\fb"),
    (r'"a\'b"', "a'b"),
])
def test_supported_escapes_decode(escaped, decoded):
    assert _literal(escaped).lexical == decoded


@pytest.mark.parametrize("escaped", [r'"\x41"', r'"\a"', r'"\uZZZZ"', r'"\U00110000"',
                                     r'"\U80000000"'])
def test_other_escapes_rejected(escaped):
    with pytest.raises(QueryParseError):
        _literal(escaped)


SHORTHAND_PREFIX = "PREFIX dbo: <http://dbpedia.org/ontology/>\nSELECT * WHERE { "


@pytest.mark.parametrize("shorthand, expanded", [
    ("?p dbo:nationality ?c ; dbo:author ?b .",
     "?p dbo:nationality ?c . ?p dbo:author ?b ."),
    ("?p dbo:author ?b1 , ?b2 , ?b3 .",
     "?p dbo:author ?b1 . ?p dbo:author ?b2 . ?p dbo:author ?b3 ."),
    ("?p dbo:author ?b1 , ?b2 ; dbo:nationality ?c . ?c dbo:capital ?k",
     "?p dbo:author ?b1 . ?p dbo:author ?b2 . ?p dbo:nationality ?c . ?c dbo:capital ?k ."),
    ("?p dbo:nationality ?c ; .", "?p dbo:nationality ?c ."),
    ("?p dbo:nationality ?c ;", "?p dbo:nationality ?c ."),
    ("?p dbo:nationality ?c ;; ?v \"x\" ; . ?c dbo:capital <http://ex/k>",
     "?p dbo:nationality ?c . ?p ?v \"x\" . ?c dbo:capital <http://ex/k> ."),
    ("?p dbo:author dbo:x.", "?p dbo:author dbo:x ."),
    ("?p dbo:a.b dbo:x.y.z.", "?p <http://dbpedia.org/ontology/a.b> "
     "<http://dbpedia.org/ontology/x.y.z> ."),
])
def test_shorthand_expands_in_document_order(shorthand, expanded):
    got = parse_query(SHORTHAND_PREFIX + shorthand + " }")
    assert got == parse_query(SHORTHAND_PREFIX + expanded + " }")


@pytest.mark.parametrize("body", [
    "?p dbo:author ?b , . }",
    "?p dbo:author ?b , }",
    "?p dbo:author , ?b . }",
    "?p ; dbo:author ?b . }",
    "; ?p dbo:author ?b . }",
    "?p dbo:author ?b ; , ?c . }",
    "?p dbo:author ?b ;",
])
def test_malformed_shorthand_rejected(body):
    with pytest.raises(QueryParseError):
        parse_query(SHORTHAND_PREFIX + body)


@pytest.mark.parametrize("text, line, column", [
    ("SELECT * WHERE { ?s ?p }", 1, 24),
    ("SELECT * WHERE {\n  ?s <http://ex/p> ?o .\n  ?s ?q\n}", 4, 1),
    ("SELECT * WHERE { ?s <http://ex/p> ?o .\n  FILTER { } }", 2, 3),
    ("SELECT * WHERE { ?s <http://ex/p> ?o .\n  FILTER (?o) }", 2, 10),
    ("SELECT * WHERE { ?s ex:p ?o }", 1, 21),
    ("SELECT * WHERE { ?s <http://ex/p> \"\\q\" }", 1, 35),
    ("SELECT * WHERE { ?s <http://ex/p> ?o . ", 1, 40),
    ("SELECT * WHERE { ?s <http://ex/p> ?o . } $", 1, 42),
    ("PREFIX ex: <http://ex/>\n", 2, 1),
    ("PREFIX ex: <http://ex/>\nPREFIX ex:foo <http://ex/foo>\nSELECT * WHERE { ?s ?p ?o }",
     2, 8),
    ("SELECT ?s ?x WHERE { ?s <http://ex/p> ?o }", 1, 8),
    # a local part starts with a letter, digit or '_'; a prefix with a letter
    ("PREFIX ex: <http://ex/>\nSELECT * WHERE { ?s ex:p ex:.a }", 2, 30),
    ("PREFIX ex: <http://ex/>\nSELECT * WHERE { ?s ex:p ex:-b }", 2, 29),
    ("PREFIX _x: <http://ex/>\nSELECT * WHERE { ?s _x:p ?o }", 1, 10),
])
def test_errors_name_line_and_column(text, line, column):
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).startswith(f"{line}:{column}: ")
