"""The mutation probe's list stays applicable to ``src/csskit``: a rewrite
that removes or duplicates a mutant's original text fails here, in tier-1,
rather than when the probe is next run."""

from pathlib import Path

import pytest

from mutation_probe import MUTANTS

SRC = Path(__file__).resolve().parent.parent / "src" / "csskit"


def test_mutant_ids_are_unique():
    ids = [mid for mid, *_ in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mid, name, old, new, what", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_text_occurs_once(mid, name, old, new, what):
    assert old != new
    assert (SRC / name).read_text().count(old) == 1
