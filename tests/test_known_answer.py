"""The known-answer session of PROTOCOL.md, Appendix A, regenerated.

``tools/known_answer.py`` writes ``tests/golden/baseline_session.txt``: one
baseline run at seed 5, every record field by field.  A wire change shows
here as a diff of the lines it moved; after a change that states a wire
change, regenerate the file with

    PYTHONPATH=src python3 tools/known_answer.py
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).parent.parent / "tools" / "known_answer.py"


@pytest.fixture(scope="module")
def known_answer():
    spec = importlib.util.spec_from_file_location("known_answer", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_session_file_matches_its_regeneration(known_answer):
    pinned = known_answer.GOLDEN.read_text(encoding="utf-8").splitlines()
    assert known_answer.render().splitlines() == pinned


def test_a_grammar_that_does_not_fit_its_record_stops_the_script(known_answer, monkeypatch):
    grammars = known_answer.grammars()
    grammars["HS2"] = grammars["HS2"][:-1]  # the device id left out: bytes are left over
    monkeypatch.setattr(known_answer, "grammars", lambda: grammars)
    with pytest.raises(SystemExit, match="^HS2: 4 bytes left after the last field$"):
        known_answer.render()


def test_a_mac_that_does_not_recompute_stops_the_script(known_answer, monkeypatch):
    monkeypatch.setattr(known_answer, "hmac_sha384", lambda key, data: bytes(48))
    with pytest.raises(SystemExit, match="^HS5: the MAC does not recompute"):
        known_answer.render()
