"""Documentation hygiene: the docs subsystem cannot rot silently.

Runs the same checks CI's docs-check job runs, inside the tier-1
suite: every local markdown link across README/ROADMAP/docs resolves,
every markdown file that code cites exists, and both checkers behave
(they catch a planted broken link and a planted bad citation).
The generated-CLI-reference freshness check lives in
``tests/test_cli.py`` next to the parser it mirrors.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402  (path set up above)


def test_repo_docs_have_no_broken_links():
    paths = [REPO_ROOT / name for name in check_docs.DEFAULT_DOCS]
    assert check_docs.check(paths) == []


def test_code_citations_resolve():
    assert check_docs.check_citations() == []


def test_checker_catches_planted_citation(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "notes.md").write_text("# section\n")
    (tmp_path / "GUIDE.md").write_text("hi\n")
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "# see GUIDE.md, docs/notes.md#section and notes.md\n"
        "# see NOWHERE.md §2\n"
    )
    # The link checker's own fixture names are exempt.
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_docs.py").write_text("# missing.md\n")
    problems = check_docs.check_citations(tmp_path)
    assert problems == ["src/pkg/mod.py:2: cites missing NOWHERE.md"]


def test_docs_directory_is_checked():
    files = check_docs.iter_doc_files([REPO_ROOT / "docs"])
    names = {f.name for f in files}
    assert {"architecture.md", "benchmarks.md", "cli.md"} <= names


def test_checker_catches_broken_link(tmp_path):
    doc = tmp_path / "page.md"
    doc.write_text(
        "ok: [here](other.md), broken: [gone](missing.md), "
        "external: [x](https://example.com), anchor: [a](#section)\n"
    )
    (tmp_path / "other.md").write_text("hi\n")
    problems = check_docs.check([tmp_path])
    assert len(problems) == 1
    assert "missing.md" in problems[0]


def test_checker_handles_anchored_file_links(tmp_path):
    doc = tmp_path / "page.md"
    doc.write_text("[sect](other.md#heading)\n")
    (tmp_path / "other.md").write_text("# heading\n")
    assert check_docs.check([tmp_path]) == []


def test_cli_rejects_misnamed_explicit_files(tmp_path, capsys):
    # A typo'd explicit argument must fail loudly, not pass silently.
    good = tmp_path / "good.md"
    good.write_text("no links\n")
    assert check_docs.main([str(good)]) == 0
    capsys.readouterr()
    assert check_docs.main([str(tmp_path / "typo.md")]) == 1
    assert "not found" in capsys.readouterr().err
    notes = tmp_path / "notes.txt"
    notes.write_text("plain text\n")
    assert check_docs.main([str(notes)]) == 1
    assert "not a .md file" in capsys.readouterr().err
