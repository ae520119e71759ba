from golden_plans import compare


def test_golden_plan_corpus():
    """Every corpus instance plans to the pinned render_plan + explain text."""
    problems = compare()
    assert not problems, f"{len(problems)} mismatch(es); first:\n{problems[0]}"
