"""The search order is part of the engine's semantics: for every
single-target corpus contract, under both heuristics, eager and lazy, the
status, the number of walks explored, the reason and the functions the
found sequence calls must match ``search_order.json``.

Argument values are left out on purpose: they are model choices, and any
model that replays is a correct one.  Regenerate the table (only when a
change means to move the search order, and say why) with

    PYTHONPATH=src python tests/test_search_order.py
"""

import json
import pathlib
import sys

import pytest

from minisol.engine import synthesize
from minisol.frontend import extract_targets

TABLE = pathlib.Path(__file__).resolve().parent / "search_order.json"
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
HEURISTICS = ("floyd-warshall", "state-var")
MODES = (False, True)                # lazy_check


def single_target_contracts():
    return [p.stem for p in sorted(CORPUS.glob("*.msol"))
            if len(extract_targets(p.read_text())) == 1]


def options(heuristic, lazy):
    """Keyword arguments of `synthesize`, defaults left out so that runs
    the engine cache shares with other tests hit the same key."""
    kw = {}
    if heuristic != "floyd-warshall":
        kw["heuristic"] = heuristic
    if lazy:
        kw["lazy_check"] = True
    return kw


def row(result):
    calls = [tx.function for tx in result.sequence] \
        if result.status == "found" else []
    return [result.status, result.walks_explored, result.reason, calls]


def key(name, heuristic, lazy):
    return "%s %s %s" % (name, heuristic, "lazy" if lazy else "eager")


def cases():
    return [(name, heuristic, lazy) for name in single_target_contracts()
            for heuristic in HEURISTICS for lazy in MODES]


@pytest.mark.parametrize("name, heuristic, lazy", cases())
def test_search_order_matches_table(engine_cache, name, heuristic, lazy):
    expected = json.loads(TABLE.read_text())[key(name, heuristic, lazy)]
    assert row(engine_cache.run(name, **options(heuristic, lazy))) == expected


def test_table_covers_every_case():
    assert sorted(json.loads(TABLE.read_text())) \
        == sorted(key(*case) for case in cases())


if __name__ == "__main__":
    table = {}
    for name, heuristic, lazy in cases():
        source = (CORPUS / ("%s.msol" % name)).read_text()
        label = key(name, heuristic, lazy)
        table[label] = row(synthesize(source, **options(heuristic, lazy)))
        print(label, table[label], file=sys.stderr)
    TABLE.write_text("{\n%s\n}\n" % ",\n".join(
        " %s: %s" % (json.dumps(label), json.dumps(table[label]))
        for label in sorted(table)))
