"""Markdown hygiene checker: local links and code citations must resolve.

Scans the repo's documentation surface — README.md, ROADMAP.md,
CHANGES.md, and everything under docs/ — for markdown links (inline
``[text](target)``
images included) and fails when a *local* target does not exist on
disk.  External links (http/https/mailto) and pure in-page anchors are
out of scope: the point is that docs referring to files in this repo
cannot rot when files move, not to probe the network from CI.

Without arguments it also scans the ``.py`` files under src/, tests/,
benchmarks/ and examples/ for cited markdown files (``DESIGN.md``,
``docs/architecture.md#anchor``) and fails on every name that exists
neither under the repo root nor under docs/ — a comment that points a
reader at a missing design note is as broken as a dead link.

Usage::

    python tools/check_docs.py            # default doc set + code citations
    python tools/check_docs.py FILE...    # check specific files' links

Exit code 0 when everything resolves, 1 otherwise (one line per broken
link or citation).  CI's docs-check job runs this; ``tests/test_docs.py``
runs the same checks in the tier-1 suite.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Documentation files checked when no arguments are given.
DEFAULT_DOCS = ("README.md", "ROADMAP.md", "CHANGES.md", "docs")

#: Inline markdown links/images: [text](target) / ![alt](target).
#: Reference-style definitions ([id]: target) are rare here and skipped.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Targets that are not local files.
_EXTERNAL = re.compile(r"^(https?|ftp|mailto):", re.IGNORECASE)

#: Code trees whose ``.py`` files are scanned for cited markdown files.
CODE_DIRS = ("src", "tests", "benchmarks", "examples")

#: The link checker's own tests: their fixture pages (``page.md``,
#: ``missing.md``, ...) exist only in temporary directories.
CITATION_EXEMPT = ("tests/test_docs.py",)

#: A cited markdown file: ``DESIGN.md``, ``docs/cli.md`` (an anchor
#: after the name is not part of the match).
_MD_CITATION = re.compile(r"[\w./-]*\w\.md\b")


def iter_doc_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into the markdown files to check."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        elif path.suffix == ".md" and path.exists():
            files.append(path)
    return files


def broken_links(doc: Path) -> list[tuple[int, str]]:
    """(line number, target) pairs of unresolvable local links in ``doc``."""
    problems: list[tuple[int, str]] = []
    for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if _EXTERNAL.match(target) or target.startswith("#"):
                continue
            # Strip an in-page anchor from a file target.
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = (doc.parent / file_part).resolve()
            if not resolved.exists():
                problems.append((lineno, target))
    return problems


def broken_citations(source: Path, root: Path) -> list[tuple[int, str]]:
    """(line number, name) pairs of markdown files ``source`` cites that
    exist neither under ``root`` nor under ``root/docs``."""
    problems: list[tuple[int, str]] = []
    lines = source.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        for name in _MD_CITATION.findall(line):
            if not ((root / name).exists() or (root / "docs" / name).exists()):
                problems.append((lineno, name))
    return problems


def check_citations(root: Path = REPO_ROOT) -> list[str]:
    """Problem lines for every unresolvable markdown citation in code."""
    problems: list[str] = []
    for tree in CODE_DIRS:
        for source in sorted((root / tree).rglob("*.py")):
            rel = source.relative_to(root)
            if rel.as_posix() in CITATION_EXEMPT:
                continue
            for lineno, name in broken_citations(source, root):
                problems.append(f"{rel}:{lineno}: cites missing {name}")
    return problems


def check(paths: list[Path]) -> list[str]:
    """Human-readable problem lines for every broken link under ``paths``."""
    problems: list[str] = []
    for doc in iter_doc_files(paths):
        for lineno, target in broken_links(doc):
            rel = doc.relative_to(REPO_ROOT) if doc.is_relative_to(REPO_ROOT) else doc
            problems.append(f"{rel}:{lineno}: broken link -> {target}")
    return problems


def main(argv: list[str]) -> int:
    if argv:
        paths = [Path(arg) for arg in argv]
        # Explicitly named paths must be checkable — a typo'd filename
        # silently yielding "all links resolve" would be a false pass.
        unusable = [
            p for p in paths
            if not p.is_dir() and not (p.suffix == ".md" and p.exists())
        ]
        if unusable:
            for path in unusable:
                reason = (
                    "not found" if not path.exists() else "not a .md file"
                )
                print(f"error: cannot check {path}: {reason}", file=sys.stderr)
            return 1
    else:
        paths = [REPO_ROOT / name for name in DEFAULT_DOCS]
    files = iter_doc_files(paths)
    if not files:
        print("error: no markdown files to check", file=sys.stderr)
        return 1
    problems = check(paths)
    if not argv:
        problems += check_citations()
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        return 1
    scope = "" if argv else " and the code's citations"
    print(f"checked {len(files)} markdown files{scope}: all resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
