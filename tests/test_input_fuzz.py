"""Seeded input fuzzing of the two text formats: every truncated, byte-flipped
or byte-inserted variant of N-Triples or query text either parses or raises
the format's own error, never another exception."""

import random

import pytest

from helpers import RUNNING_DATA, RUNNING_QUERY
from starbloom.ntriples import NTriplesError, parse_ntriples
from starbloom.sparql import QueryParseError, parse_query

CASES = 10_000

NTRIPLES = [RUNNING_DATA, """\
# a comment line
_:b0 <http://ex/p> "tab\\there \\"quoted\\" caf\\u00e9 \\U0001F600"@en-GB .
_:b0 <http://ex/p> "7"^^<http://www.w3.org/2001/XMLSchema#integer> . # trailing
<http://ex/s>\t<http://ex/p>\t_:b1 .\r
<http://ex/s> <http://ex/q> "line sep\x0bara\x85tors\x1c" .
"""]

QUERIES = [RUNNING_QUERY, """\
PREFIX ex: <http://ex/>
SELECT DISTINCT ?s ?o WHERE {
  ?s ex:p "caf\\u00e9\\n"@fr , 42 , -1.5 ; ex:q true ;
     <http://ex/r> "x"^^<http://ex/dt> . # a comment
  ?o ex:q ?s .
}
"""]


def mutants(texts: list[str], seed: int, count: int):
    """``count`` seeded variants of the texts' UTF-8 bytes, each cut short,
    bit-flipped or given an inserted byte one to three times, decoded with
    U+FFFD for the byte sequences that are no longer UTF-8."""
    rng = random.Random(seed)
    for _ in range(count):
        data = bytearray(rng.choice(texts).encode("utf-8"))
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(data) + 1)
            kind = rng.randrange(3)
            if kind == 0:
                del data[at:]
            elif kind == 1 and at < len(data):
                data[at] ^= 1 << rng.randrange(8)
            else:
                data.insert(at, rng.randrange(256))
        yield data.decode("utf-8", "replace")


@pytest.mark.parametrize("parse, error, texts, seed", [
    (parse_ntriples, NTriplesError, NTRIPLES, 1),
    (parse_query, QueryParseError, QUERIES, 2),
], ids=["ntriples", "query"])
def test_mutated_input_parses_or_raises_its_own_error(parse, error, texts, seed):
    for text in texts:
        parse(text)
    for text in mutants(texts, seed, CASES):
        try:
            parse(text)
        except error:
            pass
        except Exception as e:
            pytest.fail(f"{type(e).__name__}: {e} on {text!r}")
