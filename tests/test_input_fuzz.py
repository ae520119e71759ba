"""Seeded input fuzzing. Every truncated, byte-flipped or byte-inserted
variant of N-Triples or query text either parses or raises the format's own
error, never another exception. A stored network with one such file (the
state file, a filter file, the fragment manifest or a fragment file) either
answers the running query with the oracle's rows or exits 2, 3 or 4."""

import random

import pytest

from helpers import RUNNING_DATA, RUNNING_QUERY
from starbloom import cli
from starbloom.ntriples import NTriplesError, parse_ntriples
from starbloom.sparql import QueryParseError, parse_query
from test_cli import CREATE_ARGS, oracle_rows

CASES = 10_000
FILE_CASES = 500

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


def mutated_bytes(blobs: list[bytes], seed: int, count: int):
    """``count`` seeded variants of the byte strings, each cut short,
    bit-flipped or given an inserted byte one to three times. Yields the
    index of the string each variant comes from, and the variant."""
    rng = random.Random(seed)
    for _ in range(count):
        i = rng.choice(range(len(blobs)))
        data = bytearray(blobs[i])
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(data) + 1)
            kind = rng.randrange(3)
            if kind == 0:
                del data[at:]
            elif kind == 1 and at < len(data):
                data[at] ^= 1 << rng.randrange(8)
            else:
                data.insert(at, rng.randrange(256))
        yield i, bytes(data)


def mutants(texts: list[str], seed: int, count: int):
    """``mutated_bytes`` of the texts' UTF-8 bytes, decoded with U+FFFD for
    the byte sequences that are no longer UTF-8."""
    for _, data in mutated_bytes([t.encode("utf-8") for t in texts], seed, count):
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


@pytest.fixture(scope="module")
def stored_network(tmp_path_factory):
    """The running example fragmented and stored by ``network create``."""
    work = tmp_path_factory.mktemp("stored")
    (work / "data.nt").write_text(RUNNING_DATA, encoding="utf-8")
    (work / "query.rq").write_text(RUNNING_QUERY, encoding="utf-8")
    assert cli.main(["fragment", str(work / "data.nt"), str(work / "frags"),
                     "--min-subjects", "1"]) == cli.EXIT_OK
    assert cli.main(["network", "create", str(work / "net.json"),
                     "--fragments", str(work / "frags"), *CREATE_ARGS]) == cli.EXIT_OK
    return work


@pytest.mark.parametrize("pattern, seed", [
    ("net.json", 3), ("net.json.filters/*", 4), ("frags/manifest.jsonl", 5),
    ("frags/*.nt", 6),
], ids=["state", "filters", "fragment-manifest", "fragment-files"])
def test_mutated_network_file_answers_right_or_exits_cleanly(stored_network, pattern, seed,
                                                             capsys):
    paths = sorted(stored_network.glob(pattern))
    originals = [p.read_bytes() for p in paths]
    results = stored_network / "rows.tsv"
    argv = ["query", str(stored_network / "query.rq"),
            "--state", str(stored_network / "net.json"), "--node", "n1",
            "--results", str(results), "--metrics", str(stored_network / "metrics.json")]
    expected = oracle_rows()
    assert cli.main(argv) == cli.EXIT_OK
    assert results.read_text(encoding="utf-8") == expected
    try:
        for i, data in mutated_bytes(originals, seed, FILE_CASES):
            paths[i].write_bytes(data)
            results.unlink(missing_ok=True)
            code = cli.main(argv)
            err = capsys.readouterr().err
            if code == cli.EXIT_OK:
                assert results.read_text(encoding="utf-8") == expected, \
                    f"wrong rows with {paths[i].name} = {data!r}"
            else:
                assert code in (cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_UNSUPPORTED)
                assert str(stored_network) in err  # the message names the file
            paths[i].write_bytes(originals[i])
    finally:
        for path, original in zip(paths, originals):
            path.write_bytes(original)
