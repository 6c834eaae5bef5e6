import gc
import pathlib

import pytest

from minisol import engine
from minisol.engine import prepare, synthesize

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def corpus_source(name):
    return (CORPUS / ("%s.msol" % name)).read_text()


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that ends with the cyclic garbage collector disabled (a
    pause that leaked out of a call), and turn it back on for the tests
    after it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test ended with the cyclic garbage collector "
                    "disabled")


@pytest.fixture(scope="session")
def corpus():
    return {p.stem: p.read_text() for p in sorted(CORPUS.glob("*.msol"))}


class _EngineCache:
    """Corpus engine runs are expensive; share them across the session."""

    def __init__(self):
        self._results = {}
        self._prepared = {}

    def run(self, name, **kw):
        key = (name, tuple(sorted(kw.items())))
        if key not in self._results:
            self._results[key] = synthesize(corpus_source(name), **kw)
        return self._results[key]

    def prepared(self, name):
        if name not in self._prepared:
            self._prepared[name] = prepare(corpus_source(name))
        return self._prepared[name]


@pytest.fixture(scope="session")
def engine_cache():
    return _EngineCache()


@pytest.fixture
def check_log(monkeypatch):
    """(walk nodes, status, reason) of every check ``synthesize`` makes."""
    checks = []
    search = engine.find_minimal_satisfiable_walk

    def recorded_search(*args, check, **kwargs):
        def recorded(walk):
            result = check(walk)
            checks.append((walk.nodes, result.status, result.reason))
            return result
        return search(*args, check=recorded, **kwargs)

    monkeypatch.setattr(engine, "find_minimal_satisfiable_walk",
                        recorded_search)
    return checks
