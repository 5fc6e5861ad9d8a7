"""scripts/mutate.py: the operator sites it finds, the text it swaps, the
runs it plans and the memory limit it sets per mutant.

`find_sites` and `mutate` run on small source strings, `run_plan` on a
scratch tree and `_run` on a one-line Python child; no test starts the
pytest runs that the script makes per mutant.
"""
import importlib.util
import os
import resource
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "mutate.py"


@pytest.fixture(scope="module")
def mutate_mod():
    spec = importlib.util.spec_from_file_location("mutate_script", _PATH)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        del sys.modules[spec.name]


# each operator and what it becomes, written out apart from the script's
# own tables
SWAPS = [
    ("<", "<="), ("<=", "<"), (">", ">="), (">=", ">"), ("==", "!="),
    ("!=", "=="), ("is", "is not"), ("is not", "is"), ("in", "not in"),
    ("not in", "in"), ("+", "-"), ("-", "+"), ("*", "//"), ("//", "*"),
    ("/", "*"), ("%", "//"), ("&", "|"), ("|", "&"), ("^", "|"),
    ("<<", ">>"), (">>", "<<"), ("**", "*"),
]
AUGMENTED = [("+", "-"), ("-", "+"), ("*", "//"), ("&", "|"), ("<<", ">>")]


def test_each_swap_applies(mutate_mod):
    lines = [f"r = a {old} b\n" for old, _ in SWAPS]
    lines += [f"a {old}= b\n" for old, _ in AUGMENTED]
    want = [f"r = a {new} b\n" for _, new in SWAPS]
    want += [f"a {new}= b\n" for _, new in AUGMENTED]
    source = "".join(lines)
    sites = mutate_mod.find_sites(source)
    assert [(s.line, s.old) for s in sites] == (
        [(i + 1, old) for i, (old, _) in enumerate(SWAPS)]
        + [(len(SWAPS) + i + 1, old + "=")
           for i, (old, _) in enumerate(AUGMENTED)])
    for i, site in enumerate(sites):
        got = mutate_mod.mutate(source, site)
        assert got == "".join(lines[:i] + [want[i]] + lines[i + 1:]), site


def test_annotations_and_f_strings_are_skipped(mutate_mod):
    source = (
        "from __future__ import annotations\n"
        "def f(a: int | None, *b: list[int | str]) -> dict[str, int] | None:\n"
        "    x: int | str = a | 1\n"
        "    s = f'{a + 1} {a < 2}'\n"
        "    return s\n"
    )
    sites = mutate_mod.find_sites(source)
    # only the assigned value's `|` is a site
    assert [str(s) for s in sites] == ["3:21 | -> &"]
    assert mutate_mod.mutate(source, sites[0]) == source.replace(
        "= a | 1", "= a & 1")


def test_one_boolean_site_covers_the_expression(mutate_mod):
    source = "ok = (a\n      and b and not c) or d\n"
    sites = mutate_mod.find_sites(source)
    assert [(s.line, s.col, s.old, s.new, len(s.spans)) for s in sites] == [
        (2, 6, "and", "or", 2), (2, 23, "or", "and", 1)]
    # sites come in source order, whatever order the tree is walked in
    assert [s.spans for s in sites] == sorted(s.spans for s in sites)
    assert mutate_mod.mutate(source, sites[0]) == (
        "ok = (a\n      or b or not c) or d\n")
    assert mutate_mod.mutate(source, sites[1]) == (
        "ok = (a\n      and b and not c) and d\n")


def test_columns_after_wide_characters(mutate_mod):
    # ast counts a column in UTF-8 bytes and tokenize in characters
    source = "s = 'éé' + t if 'ü' in u else v\n"
    sites = mutate_mod.find_sites(source)
    assert [s.old for s in sites] == ["+", "in"]
    assert mutate_mod.mutate(source, sites[0]) == (
        "s = 'éé' - t if 'ü' in u else v\n")
    assert mutate_mod.mutate(source, sites[1]) == (
        "s = 'éé' + t if 'ü' not in u else v\n")


def test_operator_words_inside_names_and_strings_are_left(mutate_mod):
    # the swap is found among the tokens between the operands, so `in`
    # inside a name or a string is never taken for the operator
    source = "r = 'a in b' if index in inner else isin\n"
    (site,) = mutate_mod.find_sites(source)
    assert mutate_mod.mutate(source, site) == (
        "r = 'a in b' if index not in inner else isin\n")


def test_a_child_past_the_memory_limit_stops_at_once(mutate_mod, tmp_path):
    # a 1 GiB request under a 64 MiB address-space limit fails before any
    # page is touched, so the child holds no real memory; the limit is set
    # in the child alone
    before = resource.getrlimit(resource.RLIMIT_AS)
    outcome, took = mutate_mod._run(
        [sys.executable, "-c", "bytearray(1 << 30)"], tmp_path,
        dict(os.environ), 60, 64 << 20)
    assert outcome == "out of memory"
    assert took < 10
    assert resource.getrlimit(resource.RLIMIT_AS) == before
    # under the same limit a child that stays small passes
    outcome, _ = mutate_mod._run([sys.executable, "-c", "bytearray(1 << 20)"],
                                 tmp_path, dict(os.environ), 60, 64 << 20)
    assert outcome == "survived"


def test_the_target_s_own_tests_run_first(mutate_mod, tmp_path):
    tests = tmp_path / "tests"
    (tests / "deep").mkdir(parents=True)
    for name in ("test_foo.py", "test_bar.py", "deep/test_baz.py"):
        (tests / name).write_text("")
    target = Path("src/pkg/foo.py")

    def plan(*named):
        return mutate_mod.run_plan(target, list(named), tmp_path)

    own = "tests/test_foo.py"
    assert plan("tests") == [[own], ["tests"]]
    assert plan("tests/", "other") == [[own], ["tests/", "other"]]
    assert plan(own, "tests/test_bar.py") == [[own], [own, "tests/test_bar.py"]]
    # the own file alone, or named tests that do not hold it: one run
    assert plan(own) == [[own]]
    assert plan("tests/test_bar.py") == [["tests/test_bar.py"]]
    assert plan("tests/deep") == [["tests/deep"]]
    # no own file: the named tests alone
    assert mutate_mod.run_plan(Path("src/pkg/qux.py"), ["tests"],
                               tmp_path) == [["tests"]]


def _no_runs(*args, **kwargs):
    raise AssertionError("no test run may start")


def test_listed_sites_are_skipped(mutate_mod, tmp_path, monkeypatch, capsys):
    source = "def f(a, b):\n    return a < b or a + 1 > b\n"
    sites = mutate_mod.find_sites(source)
    assert [str(s) for s in sites] == [
        "2:13 < -> <=", "2:17 or -> and", "2:22 + -> -", "2:26 > -> >="]
    listing = (
        "# a comment, then a blank line\n\n"
        "pkg/mod.py:2:13 < -> <= # a < b and a <= b agree here\n"
        "pkg/other.py:9:9 + -> - # another file's site is not checked\n"
        "pkg/mod.py:2:26  >  ->  >=  # spacing # and a second ' # '\n"
    )
    got = mutate_mod.listed_equivalent(listing, Path("pkg/mod.py"), sites)
    assert got == {sites[0]: "a < b and a <= b agree here",
                   sites[3]: "spacing # and a second ' # '"}

    # every site listed: main reports each skip and starts no test run
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(source)
    (tmp_path / "scripts").mkdir()
    (tmp_path / mutate_mod.EQUIVALENT).write_text("".join(
        f"pkg/mod.py:{s} # why {i}\n" for i, s in enumerate(sites)))
    monkeypatch.setattr(mutate_mod, "ROOT", tmp_path.resolve())
    monkeypatch.setattr(mutate_mod, "_run", _no_runs)
    # the target named relative to the root or by its absolute path
    for named in ("pkg/mod.py", str(tmp_path / "pkg" / "mod.py")):
        assert mutate_mod.main([named]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["4 sites in pkg/mod.py, 4 listed as equivalent"] + [
            f"pkg/mod.py:{s}  skipped, listed as equivalent: why {i}"
            for i, s in enumerate(sites)] + ["4 skipped"]


def test_a_listed_site_that_is_gone_is_an_error(mutate_mod, tmp_path,
                                                monkeypatch, capsys):
    source = "r = a < b\n"
    sites = mutate_mod.find_sites(source)
    assert [str(s) for s in sites] == ["1:6 < -> <="]
    for listing in ("m.py:1:5 < -> <= # moved a column\n",
                    "m.py:1:6 > -> >= # another swap\n"):
        with pytest.raises(ValueError, match="is not a site of m.py"):
            mutate_mod.listed_equivalent(listing, Path("m.py"), sites)
    with pytest.raises(ValueError, match="line 1: not"):
        mutate_mod.listed_equivalent("m.py:1:6 < -> <=\n", Path("m.py"), sites)

    # main stops before any test run
    (tmp_path / "m.py").write_text(source)
    (tmp_path / "scripts").mkdir()
    (tmp_path / mutate_mod.EQUIVALENT).write_text(
        "m.py:1:6 < -> <= # here\nm.py:3:6 < -> <= # gone\n")
    monkeypatch.setattr(mutate_mod, "ROOT", tmp_path.resolve())
    monkeypatch.setattr(mutate_mod, "_run", _no_runs)
    assert mutate_mod.main(["m.py"]) == 2
    assert capsys.readouterr().out == (
        "scripts/mutate_equivalent.txt: line 2: m.py:3:6 < -> <= is not a "
        "site of m.py\n")


def test_committed_list_names_current_sites(mutate_mod):
    # an edit that moves a listed site must move its line in the list too
    listing = (_PATH.parent / "mutate_equivalent.txt").read_text()
    paths = {line.split(":")[0] for line in listing.splitlines()
             if line.strip() and not line.startswith("#")}
    assert paths
    root = _PATH.parent.parent
    for path in sorted(paths):
        sites = mutate_mod.find_sites((root / path).read_text())
        got = mutate_mod.listed_equivalent(listing, Path(path), sites)
        assert len(got) == sum(line.startswith(path + ":")
                               for line in listing.splitlines())
