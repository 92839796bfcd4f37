"""The survivors ledger of ``tests/mutate.py`` stays tied to the code.

Each entry names a source line by its number and its text; the text
must still be there, so an edit that moves or changes the line makes the
ledger be brought up to date.  Each entry names the test that now kills
the mutant or the reason it is equivalent.
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "tests", "mutation_ledger.json")


def test_every_ledger_entry_names_an_existing_source_line():
    with open(LEDGER) as fh:
        entries = json.load(fh)
    assert entries
    for e in entries:
        with open(os.path.join(ROOT, e["module"])) as fh:
            lines = fh.read().splitlines()
        assert lines[e["line"] - 1].strip() == e["text"], e
        assert ("killed_by" in e) != ("equivalent" in e), e
        if "killed_by" in e:
            path, _, name = e["killed_by"].partition("::")
            with open(os.path.join(ROOT, path)) as fh:
                assert f"def {name}(" in fh.read(), e
