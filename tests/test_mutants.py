"""The mutant catalogue (`mutants.py`) fits the code: each mutant's source
text occurs exactly once in its file, and each test it names exists.  The
mutants themselves run outside tier-1: `python tests/mutants.py`."""

import re
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).parent.parent


def test_each_mutant_source_occurs_once_and_its_tests_exist():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        text = (ROOT / "src" / "owltamp" / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.source) == 1, mutant.name
        assert mutant.replacement != mutant.source and mutant.tests, mutant.name
        for test in mutant.tests:
            path, _, name = test.partition("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {re.escape(name.split('[')[0])}\(", source, re.M), test
