from golden_merges import compare


def test_golden_merge_corpus():
    """Every corpus instance merges to the pinned fragments and report."""
    problems = compare()
    assert not problems, f"{len(problems)} mismatch(es); first:\n{problems[0]}"
