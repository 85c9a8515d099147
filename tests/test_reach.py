"""The reach map (``tests/reach_map.tsv``) against the source tree.

Static and fast: it parses ``src/repro`` and never runs the product.
``python tests/reach.py`` regenerates the map by running the product's
entry points; a function this test finds unmapped is one nobody has
classified yet.
"""

import functools

import reach


@functools.lru_cache(maxsize=None)
def _defs():
    return tuple(reach.source_defs())


def test_every_def_has_exactly_one_row():
    mapped = {}
    for path, qualname, *_ in reach.read_map():
        mapped[(path, qualname)] = mapped.get((path, qualname), 0) + 1
    repeated = sorted(key for key, count in mapped.items() if count > 1)
    assert not repeated, "functions mapped more than once: %s" % repeated
    unmapped = ["%s::%s" % (path, qualname)
                for path, qualname, _ in _defs()
                if (path, qualname) not in mapped]
    assert not unmapped, (
        "functions missing from tests/reach_map.tsv (run `python "
        "tests/reach.py`): %s" % unmapped)


def test_every_row_still_exists():
    defined = {(path, qualname) for path, qualname, _ in _defs()}
    stale = ["%s::%s" % (path, qualname)
             for path, qualname, *_ in reach.read_map()
             if (path, qualname) not in defined]
    assert not stale, "rows for functions that are gone: %s" % stale


def test_every_non_product_row_has_a_reason():
    for path, qualname, klass, reason, note in reach.read_map():
        where = "%s::%s" % (path, qualname)
        assert klass in reach.CLASSES, where
        if klass == "product":
            assert not reason, where
        else:
            assert reason in reach.REASONS, where
        assert note in ("", "import"), where


def test_rows_are_named_like_the_interpreter_names_them(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "mod.py").write_text(
        "class A:\n"
        "    @property\n"
        "    def x(self):\n"
        "        def inner():\n"
        "            pass\n"
        "    @x.setter\n"
        "    def x(self, value):\n"
        "        pass\n")
    assert [row[:2] for row in reach.source_defs(str(package))] == [
        ("mod.py", "A.x"), ("mod.py", "A.x.<locals>.inner"),
        ("mod.py", "A.x#2")]
