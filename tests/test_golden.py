"""Every command line of the golden corpus, run in-process through
``cli.main``, prints the stdout and stderr whose SHA-256 ``tests/golden.json``
records, and exits with the recorded code.

``python -m tests.make_golden`` rewrites the file; these tests only read it.
"""

import json
import shlex

from .make_golden import GOLDEN, corpus, differences, run

RECORDS = json.loads(GOLDEN.read_text())


def test_golden_file_holds_the_corpus():
    assert list(RECORDS) == corpus()


def test_every_command_line_prints_its_recorded_bytes(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    wrong = [line for line, record in RECORDS.items() if run(shlex.split(line)) != record]
    assert wrong == []


def test_diff_names_each_changed_added_and_removed_line():
    old = {"index 1": {"exit": 0}, "index 2": {"exit": 0}, "index 3": {"exit": 0}}
    new = {"index 1": {"exit": 0}, "index 2": {"exit": 1}, "index 4": {"exit": 0}}
    assert differences(old, old) == []
    assert differences(old, new) == ["changed\tindex 2", "added\tindex 4", "removed\tindex 3"]
