"""Console output against the committed ledger in tests/ledger (see make_ledger.py there).

The comparison is not byte-exact: numpy picks its BLAS and LAPACK kernels per CPU, so another machine may
differ in the last bits. Every token that is not a number must match exactly, and every number must satisfy
|a - b| <= 1e-12 max(1, |b|), b the ledger's. Byte identity on one machine stays a ``cmp`` of the
regenerated files.
"""

import re

import pytest

from ledger.make_ledger import LEDGER_DIR, render

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
REL_TOL = 1e-12
LEDGER_FILES = sorted(path.name for path in LEDGER_DIR.iterdir() if path.suffix in (".csv", ".txt", ".json"))


def mismatch(got: str, expected: str):
    """None when got matches expected by the ledger rule, else a description of the first difference."""
    got_words, expected_words = NUMBER.split(got), NUMBER.split(expected)
    if got_words != expected_words:
        first = next((i for i, pair in enumerate(zip(got_words, expected_words)) if pair[0] != pair[1]),
                     min(len(got_words), len(expected_words)))
        return f"text differs at token {first}"
    for i, (a, b) in enumerate(zip(map(float, NUMBER.findall(got)), map(float, NUMBER.findall(expected)))):
        if not abs(a - b) <= REL_TOL * max(1.0, abs(b)):
            return f"number {i}: {a!r} against the ledger's {b!r}"
    return None


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    return render(tmp_path_factory.mktemp("ledger"))


def test_ledger_holds_every_output_and_nothing_else(rendered):
    assert sorted(rendered) == LEDGER_FILES


@pytest.mark.parametrize("name", LEDGER_FILES)
def test_output_matches_the_ledger(rendered, name):
    expected = (LEDGER_DIR / name).read_text(encoding="utf-8")
    assert mismatch(rendered[name], expected) is None, (name, mismatch(rendered[name], expected))


def test_the_rule_refuses_changed_text_and_numbers_past_the_tolerance():
    expected = "r = 0.735246300743 (residual 2.770e-17)\n"
    assert mismatch(expected, expected) is None
    assert mismatch("r = 0.735246300744 (residual 2.771e-17)\n", expected) is None  # within 1e-12
    assert mismatch("r = 0.735246300746 (residual 2.770e-17)\n", expected) == (
        "number 0: 0.735246300746 against the ledger's 0.735246300743")
    assert mismatch("r = 0.735246300743 (residual 2.770e-17, flipped)\n", expected) == "text differs at token 2"
    assert mismatch("r = -0.735246300743 (residual 2.770e-17)\n", expected) is not None
