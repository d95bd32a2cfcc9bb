#!/usr/bin/env python3
"""Link and anchor checker for the repository's markdown documentation.

Usage::

    python tools/check_docs_links.py README.md docs/ARCHITECTURE.md

For every ``[text](target)`` link in the given files:

* ``http(s)``/``mailto`` targets are skipped (no network in CI);
* relative file targets must exist on disk (resolved against the linking
  file's directory);
* ``#anchor`` fragments — on the same file or a linked markdown file —
  must match a heading in that file, using GitHub's slugification rules
  (lowercase, punctuation stripped, spaces to hyphens, duplicate slugs
  numbered).

Inline code spans and fenced code blocks are ignored when looking for
links, so CLI examples containing ``[...]`` never register as links.

Inline code spans are checked for drift instead: a span that is a repo path
(``src/…``, ``tests/…``, ``tools/…``, ``benchmarks/…``, …, or ``repro/…``
under ``src/``; globs allowed, a ``::test`` suffix ignored) must exist, and a span that is a dotted name
starting with ``repro.`` (``repro.store.RunStore``, ``repro.{core,sim}``)
must resolve to an importable module or attribute, so documentation that
still names a removed file or symbol fails the ``docs`` CI job.

Exits non-zero listing every broken reference; prints a per-file summary
otherwise.
"""

from __future__ import annotations

import importlib
import itertools
import pathlib
import re
import sys
from typing import Dict, Iterator, List, Set

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))  # `repro.*` names resolve without an install

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_PATTERN = re.compile(r"^(#{1,6})\s+(.*?)\s*$")
FENCE_PATTERN = re.compile(r"^(```|~~~)")


SPAN_PATTERN = re.compile(r"`([^`]*)`")
PATH_SPAN = re.compile(r"(?:src|tests|tools|benchmarks|bench|docs|examples|repro)/[^\s:]*")
NAME_SPAN = re.compile(r"repro(?:\.[\w{},]+)+")
BRACES = re.compile(r"\{([^{}]*)\}")


def strip_fences(text: str) -> str:
    """Remove fenced code blocks."""
    lines: List[str] = []
    in_fence = False
    for line in text.splitlines():
        if FENCE_PATTERN.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            lines.append(line)
    return "\n".join(lines)


def expand_braces(name: str) -> Iterator[str]:
    """``repro.{core,sim}.x`` -> ``repro.core.x``, ``repro.sim.x``."""
    parts = BRACES.split(name)  # odd indices are the brace contents
    choices = [part.split(",") if index % 2 else [part] for index, part in enumerate(parts)]
    return ("".join(combo) for combo in itertools.product(*choices))


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an importable module or an attribute of one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attribute in parts[split:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


def check_code_spans(path: pathlib.Path, text: str) -> List[str]:
    """Backticked repo paths must exist; backticked ``repro.`` names must resolve."""
    problems: List[str] = []
    spans = set(SPAN_PATTERN.findall(text))
    for span in sorted(spans):
        target = span.split("::")[0]
        if PATH_SPAN.fullmatch(target):
            root = REPO_ROOT / "src" if target.startswith("repro/") else REPO_ROOT
            if not any(root.glob(target.rstrip("/"))):
                problems.append(f"{path}: `{span}` names a path that does not exist")
        elif NAME_SPAN.fullmatch(span.removesuffix("()")):
            for name in expand_braces(span.removesuffix("()")):
                if not resolves(name):
                    problems.append(f"{path}: `{span}`: {name} is not importable")
    print(f"{path}: {len(spans)} distinct code spans checked")
    return problems


def github_slug(heading: str) -> str:
    """GitHub's heading-to-anchor slug: lowercase, punctuation out, spaces to hyphens."""
    slug = heading.strip().lower()
    slug = re.sub(r"`", "", slug)
    slug = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", slug)  # linked headings keep their text
    slug = re.sub(r"[^\w\sÀ-￿-]", "", slug)
    slug = re.sub(r"\s", "-", slug)
    return slug


def anchors_of(path: pathlib.Path, cache: Dict[pathlib.Path, Set[str]]) -> Set[str]:
    if path not in cache:
        slugs: Set[str] = set()
        counts: Dict[str, int] = {}
        in_fence = False
        for line in path.read_text(encoding="utf-8").splitlines():
            if FENCE_PATTERN.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            match = HEADING_PATTERN.match(line)
            if not match:
                continue
            base = github_slug(match.group(2))
            seen = counts.get(base, 0)
            counts[base] = seen + 1
            slugs.add(base if seen == 0 else f"{base}-{seen}")
        cache[path] = slugs
    return cache[path]


def check_file(path: pathlib.Path, cache: Dict[pathlib.Path, Set[str]]) -> List[str]:
    unfenced = strip_fences(path.read_text(encoding="utf-8"))
    problems = check_code_spans(path, unfenced)
    text = SPAN_PATTERN.sub("", unfenced)
    checked = 0
    for target in LINK_PATTERN.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        checked += 1
        file_part, _, anchor = target.partition("#")
        destination = path if not file_part else (path.parent / file_part).resolve()
        if not destination.exists():
            problems.append(f"{path}: broken link target {target!r} (no such file)")
            continue
        if anchor:
            if destination.suffix.lower() not in (".md", ".markdown"):
                problems.append(
                    f"{path}: anchor link {target!r} points at a non-markdown file"
                )
                continue
            if anchor not in anchors_of(destination, cache):
                problems.append(
                    f"{path}: anchor {target!r} does not match any heading in {destination.name}"
                )
    print(f"{path}: {checked} internal links checked")
    return problems


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: check_docs_links.py FILE.md [FILE.md ...]", file=sys.stderr)
        return 2
    cache: Dict[pathlib.Path, Set[str]] = {}
    problems: List[str] = []
    for name in argv:
        path = pathlib.Path(name)
        if not path.exists():
            problems.append(f"{path}: file does not exist")
            continue
        problems.extend(check_file(path, cache))
    for problem in problems:
        print(f"BROKEN {problem}", file=sys.stderr)
    if problems:
        print(f"{len(problems)} broken links/anchors/references", file=sys.stderr)
        return 1
    print("all links, anchors and code references resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
