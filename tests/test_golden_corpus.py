"""`theorems.dim1_corpus`, ring by ring, against committed golden files.

Each case calls dim1_corpus with one (extra, seed) and compares the
reprs of its rings, one a line, with tests/golden/corpus.  The golden
files hold the corpus drawn when every random draw ran its own
acceptance test; the benchmark's verify deck for a seed is built from
dim1_corpus(extra=240, seed=seed), so a change to the draws or to the
acceptance test shows here first.

    PYTHONPATH=src python tests/test_golden_corpus.py DIR

writes the current code's corpus for every case into DIR.  CI's install-smoke
job runs it without PYTHONPATH, against the installed package, and
`diff -r`s DIR with tests/golden/corpus.
"""

import sys
from pathlib import Path

import pytest

from homdecomp.theorems import dim1_corpus

GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus"

# the default call, and the verify workload's extra=240 at three seeds
CASES = {"dim1-default": {}}
CASES.update({f"dim1-extra240-seed{seed}": {"extra": 240, "seed": seed} for seed in (1, 2, 3)})


def corpus_text(case: str) -> str:
    return "".join(f"{ring!r}\n" for ring in dim1_corpus(**CASES[case]))


def test_golden_dir_holds_every_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_corpus_matches_golden(case):
    assert corpus_text(case) == (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        (target / f"{case}.txt").write_text(corpus_text(case), encoding="utf-8")
