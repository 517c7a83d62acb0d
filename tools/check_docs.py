#!/usr/bin/env python3
"""Stale-reference checker for the documentation suite.

Three checks, each reporting every broken reference it finds:

1. Markdown links. Every tracked ``*.md`` at the repo root and under
   ``docs/`` is scanned for inline links and images (``[text](target)``
   / ``![alt](target)``), and each relative target must exist on disk.
   External schemes (http/https/mailto) are deliberately NOT fetched —
   the check must be fast and non-flaky in CI — and pure in-page
   anchors (``#section``) are skipped. A ``path#anchor`` target is
   checked for the path only.
2. Backticked repo paths. In ``README.md`` and under ``docs/``, the
   files that describe the tree as it is, an inline code span whose
   first path component is a top-level directory of the repo (``src/``,
   ``docs/``, ...) names a repo path and must exist. ``{a,b}`` braces
   expand to every alternative, ``<name>`` placeholders and ``*`` match
   any one path component, and a ``:line`` suffix is ignored. The other
   root markdown files log history and plans, so they may name paths
   that are gone or not yet written.
3. Markdown names in comments. A ``*.md`` name cited in a comment of a
   source file under ``src/``, ``tests/``, ``bench/``, ``tools/`` or
   ``examples/`` must exist at the repo root, under ``docs/``, or at the
   cited path.

Fenced code blocks are stripped from markdown first, so shell snippets
that name build outputs are not checked.

Runs from anywhere (resolves the repo root from its own location, or
takes it as the one argument); exits non-zero listing every broken
reference. Used by the CI ``docs`` job and registered as a ctest (see
tests/tools/CMakeLists.txt).
"""

import fnmatch
import itertools
import re
import sys
from pathlib import Path

# Inline link/image: [text](target) — target may carry an optional
# 'title'.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
FENCE_RE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
CODE_SPAN_RE = re.compile(r"(`+)(.+?)\1", re.DOTALL)
EXTERNAL = ("http://", "https://", "mailto:", "ftp://")

SOURCE_DIRS = ("src", "tests", "bench", "tools", "examples")
C_SUFFIXES = {".h", ".hpp", ".c", ".cc", ".cpp"}
HASH_SUFFIXES = {".py", ".sh", ".cmake", ".txt"}
MD_NAME_RE = re.compile(r"[\w./-]*\w\.md\b")
STRING_RE = re.compile(r'"(?:\\.|[^"\\\n])*"')
BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)


def doc_files(root: Path):
    yield from sorted(root.glob("*.md"))
    yield from sorted((root / "docs").glob("**/*.md"))


def top_level_dirs(root: Path):
    """Top-level directories, less those the root .gitignore ignores:
    build outputs are not repo paths."""
    ignore = root / ".gitignore"
    ignored = [line.strip().strip("/") for line in
               ignore.read_text(encoding="utf-8").splitlines()
               if line.strip().endswith("/")] if ignore.exists() else []
    return {p.name for p in root.iterdir() if p.is_dir() and
            not any(fnmatch.fnmatch(p.name, pat) for pat in ignored)}


def check_links(path: Path, text: str):
    """Yields (target, reason) for every broken link in `path`."""
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue  # external, or an in-page anchor
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            yield target, f"target does not exist ({resolved})"


def expand_braces(pattern: str):
    """`a.{h,cc}` -> [`a.h`, `a.cc`]; several groups expand jointly."""
    parts = re.split(r"\{([^{}]*)\}", pattern)
    literals, groups = parts[0::2], [g.split(",") for g in parts[1::2]]
    for choice in itertools.product(*groups):
        out = literals[0]
        for alt, lit in zip(choice, literals[1:]):
            out += alt + lit
        yield out


def path_exists(root: Path, candidate: str) -> bool:
    candidate = re.sub(r"<[^<>/]*>", "*", candidate)
    if "*" in candidate:
        return any(root.glob(candidate.rstrip("/")))
    return (root / candidate).exists()


def check_code_paths(root: Path, text: str, top_dirs):
    """Yields (span, reason) for every backticked repo path that does
    not exist."""
    for match in CODE_SPAN_RE.finditer(text):
        for token in match.group(2).split():
            token = token.strip("()[],;\"'")
            token = re.sub(r":\d+(-\d+)?$", "", token)
            if "/" not in token or token.split("/", 1)[0] not in top_dirs:
                continue
            missing = [p for p in expand_braces(token)
                       if not path_exists(root, p)]
            if missing:
                yield token, f"no such path: {', '.join(missing)}"


def comment_text(path: Path, text: str) -> str:
    """The comments of a source file, joined; string literals are not
    comments."""
    if path.suffix in C_SUFFIXES:
        code = STRING_RE.sub('""', text)
        blocks = BLOCK_COMMENT_RE.findall(code)
        code = BLOCK_COMMENT_RE.sub("", code)
        lines = [line.split("//", 1)[1] for line in code.splitlines()
                 if "//" in line]
        return "\n".join(blocks + lines)
    if path.suffix in HASH_SUFFIXES:
        return "\n".join(line.split("#", 1)[1] for line in text.splitlines()
                         if "#" in line)
    return ""


def source_files(root: Path):
    for d in SOURCE_DIRS:
        for path in sorted((root / d).glob("**/*")):
            if path.is_file() and path.suffix in C_SUFFIXES | HASH_SUFFIXES:
                yield path


def check_comment_citations(root: Path, path: Path):
    """Yields (name, reason) for every `*.md` a comment of `path` cites
    that exists nowhere it could mean."""
    text = path.read_text(encoding="utf-8", errors="replace")
    for name in sorted(set(MD_NAME_RE.findall(comment_text(path, text)))):
        places = [root / Path(name).name, root / "docs" / Path(name).name,
                  root / name, path.parent / name]
        if not any(p.exists() for p in places):
            yield name, "cited markdown file does not exist"


def main(argv) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else \
        Path(__file__).resolve().parent.parent
    top_dirs = top_level_dirs(root)
    broken = []
    checked = 0
    for path in doc_files(root):
        checked += 1
        text = FENCE_RE.sub("", path.read_text(encoding="utf-8"))
        for target, reason in check_links(path, text):
            broken.append((path.relative_to(root), f"[{target}]", reason))
        if path.parent == root and path.name != "README.md":
            continue
        for span, reason in check_code_paths(root, text, top_dirs):
            broken.append((path.relative_to(root), f"`{span}`", reason))
    sources = 0
    for path in source_files(root):
        sources += 1
        for name, reason in check_comment_citations(root, path):
            broken.append((path.relative_to(root), name, reason))
    if broken:
        print(f"check_docs: {len(broken)} stale reference(s):")
        for path, ref, reason in broken:
            print(f"  {path}: {ref} — {reason}")
        return 1
    print(f"check_docs: OK ({checked} markdown files, {sources} source "
          f"files, no stale references)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
