"""The bundled self-check suites: determinism and shape."""

import pytest

from hausdorff.checks import (_DRAW_CAP, CheckResult, _Tally, all_passed,
                              run_suite, suite_names)
from hausdorff.errors import NotInLH, NotRepresentable, ValidationError


def test_suite_names_cover_the_surface():
    names = suite_names()
    assert set(names) >= {"pair-algebra", "set-metric", "integral-laws",
                          "beppo-levi", "fatou", "riesz-fischer",
                          "paper-examples"}


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError, match="suite"):
        run_suite("no-such-suite")


def test_suites_are_deterministic_under_a_seed():
    assert run_suite("fatou", seed=99) == run_suite("fatou", seed=99)


def test_alternate_seed_still_passes():
    assert all_passed(run_suite("beppo-levi", seed=7))
    assert all_passed(run_suite("fatou", seed=7))


def test_pinned_examples_pass_with_receipts():
    results = run_suite("paper-examples")
    assert all_passed(results)
    for r in results:
        assert r.expected and r.actual


def test_result_line_format():
    ok = CheckResult("a law", True, trials=12)
    assert ok.line().startswith("pass") and "[12 cases]" in ok.line()
    bad = CheckResult("a law", False, expected="x", actual="y")
    text = bad.line()
    assert text.startswith("FAIL") and "x" in text and "y" in text
    for r in (ok, bad):
        skipping = CheckResult(r.name, r.passed, r.trials, r.expected,
                               r.actual, skipped={"NotRepresentable": 3},
                               skipped_at={"hintegral._combined_terms": 3})
        assert skipping.line() == r.line()


def test_a_law_that_only_refuses_gives_up_at_the_draw_cap():
    tally = _Tally("a law", NotRepresentable)
    draws = 0
    while tally.wants(500):
        draws += 1
        with tally:
            raise NotRepresentable("outside the catalog")
    result = tally.result()
    assert draws == _DRAW_CAP * 500
    assert not result.passed and result.trials == 0
    assert result.skipped == {"NotRepresentable": _DRAW_CAP * 500}
    assert "NotRepresentable" in result.line()


def test_a_law_stops_drawing_once_its_cases_are_counted():
    tally = _Tally("a law", NotRepresentable)
    draws = 0
    while tally.wants(3):
        draws += 1
        with tally:
            if draws % 2:
                raise NotRepresentable("outside the catalog")
            tally.count(True)
    result = tally.result()
    assert draws == 6 and result.passed and result.trials == 3
    assert result.skipped == {"NotRepresentable": 3}


def test_skips_are_counted_by_raise_site():
    tally = _Tally("a law", ValidationError)
    for _ in range(3):
        with tally:
            run_suite("no-such-suite")
    with tally:
        raise ValidationError("refused outside the engine")
    result = tally.result()
    assert result.skipped == {"ValidationError": 4}
    # the innermost engine frame names the site; a refusal raised outside
    # the engine is charged to its own innermost frame
    assert result.skipped_at == {
        "checks.run_suite": 3,
        f"{__name__}.test_skips_are_counted_by_raise_site": 1}


def test_refusals_outside_the_law_still_propagate():
    tally = _Tally("a law", NotRepresentable)
    with pytest.raises(NotInLH):
        with tally:
            raise NotInLH("not integrable")
    assert tally.result().skipped == {}
