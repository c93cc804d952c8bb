"""``tests/mutants.py``'s own rule for applying a mutation, checked without
running one: each entry's old text occurs exactly once in its file, so an
edit that moves a mutated line fails here at once."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("mutants", Path(__file__).with_name("mutants.py"))
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("name, path, old, new", mutants.MUTANTS,
                         ids=[entry[0] for entry in mutants.MUTANTS])
def test_old_text_occurs_once(name, path, old, new):
    assert (mutants.ROOT / path).read_text().count(old) == 1
