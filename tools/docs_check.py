#!/usr/bin/env python3
"""Documentation checker: links, C++ snippets, quotes and the kind table.

Checks over every tracked markdown file:

1. Relative links — every [text](path) that is not an external URL or a
   pure #anchor must name a file or directory that exists, relative to
   the file containing the link (or to the repo root for /-leading
   paths). Anchors are stripped before the existence check.

2. Fenced snippets — every ```cpp block must compile as a standalone
   translation unit with -fsyntax-only against -I src. The convention:
   ```cpp marks a compiled snippet (self-contained: includes what it
   uses; top-level statements are fine, they are global definitions),
   ```c++ marks an illustrative fragment the checker skips.

3. Verbatim snippets — a fence preceded by a marker comment

       <!-- verbatim-from: src/service/service.hpp -->

   must reproduce a contiguous run of lines from that file (compared
   with whitespace normalized, comment-only and blank lines ignored).
   Use it when a doc quotes a real declaration — a wire-frame struct,
   a config block — so the quote cannot drift from the source.

4. Trace-kind table — the kind table in docs/OBSERVABILITY.md (the one
   headed "| kind | value |") must list exactly the (name, value) pairs
   of the MW_TRACE_KINDS rows in src/trace/trace.hpp: none missing, none
   extra, no value changed.

Exit code 0 when everything passes; 1 with one line per failure.

Usage: tools/docs_check.py [--compiler g++] [files...]
(no files = every *.md under the repo, skipping build/ and hidden dirs)
"""

import argparse
import pathlib
import re
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\S*)\s*$")
VERBATIM_RE = re.compile(r"^<!--\s*verbatim-from:\s*(\S+)\s*-->\s*$")

# Markdown the check owns. Generated or vendored text would go here.
SKIP_DIRS = {"build", ".git", ".github"}


def md_files():
    out = []
    for p in sorted(REPO.rglob("*.md")):
        rel = p.relative_to(REPO)
        if any(part in SKIP_DIRS or part.startswith(".") for part in rel.parts):
            continue
        out.append(p)
    return out


def strip_fences(text):
    """Yields (line_number, line) for lines outside fenced code blocks."""
    in_fence = False
    for i, line in enumerate(text.splitlines(), 1):
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield i, line


def check_links(path, text, errors):
    for lineno, line in strip_fences(text):
        for target in LINK_RE.findall(line):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
                continue
            if target.startswith("#"):  # same-file anchor
                continue
            clean = target.split("#", 1)[0]
            if not clean:
                continue
            base = REPO if clean.startswith("/") else path.parent
            resolved = (base / clean.lstrip("/")).resolve()
            if not resolved.exists():
                errors.append(
                    f"{path.relative_to(REPO)}:{lineno}: broken link "
                    f"'{target}'"
                )


def cpp_snippets(text):
    """Yields (first_line_number, snippet_source) for ```cpp fences."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = FENCE_RE.match(lines[i])
        if m and m.group(1) == "cpp":
            start = i + 2  # 1-based line of first snippet line
            body = []
            i += 1
            while i < len(lines) and not FENCE_RE.match(lines[i]):
                body.append(lines[i])
                i += 1
            yield start, "\n".join(body) + "\n"
        elif m and m.group(1):
            # Some other fenced language: skip to its closing fence.
            i += 1
            while i < len(lines) and not FENCE_RE.match(lines[i]):
                i += 1
        i += 1


def check_snippets(path, text, compiler, errors):
    for lineno, src in cpp_snippets(text):
        with tempfile.NamedTemporaryFile(
            mode="w", suffix=".cpp", prefix="docsnip_", delete=False
        ) as f:
            f.write(src)
            tmp = f.name
        try:
            proc = subprocess.run(
                [
                    compiler,
                    "-std=c++20",
                    "-fsyntax-only",
                    "-I",
                    str(REPO / "src"),
                    tmp,
                ],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                first = proc.stderr.strip().splitlines()
                detail = first[0] if first else "compiler error"
                errors.append(
                    f"{path.relative_to(REPO)}:{lineno}: ```cpp snippet "
                    f"fails to compile: {detail}"
                )
        finally:
            pathlib.Path(tmp).unlink(missing_ok=True)


def normalized(lines):
    """Whitespace-collapsed lines, blank and comment-only lines dropped."""
    out = []
    for line in lines:
        squashed = " ".join(line.split())
        if not squashed or squashed.startswith("//"):
            continue
        out.append(squashed)
    return out


def verbatim_blocks(text):
    """Yields (marker_lineno, source_path, snippet_lines)."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = VERBATIM_RE.match(lines[i])
        if not m:
            i += 1
            continue
        marker_line, source = i + 1, m.group(1)
        i += 1
        while i < len(lines) and not lines[i].strip():
            i += 1
        if i >= len(lines) or not FENCE_RE.match(lines[i]):
            yield marker_line, source, None  # marker with no fence = error
            continue
        i += 1
        body = []
        while i < len(lines) and not FENCE_RE.match(lines[i]):
            body.append(lines[i])
            i += 1
        i += 1
        yield marker_line, source, body


def check_verbatim(path, text, errors):
    for lineno, source, body in verbatim_blocks(text):
        where = f"{path.relative_to(REPO)}:{lineno}"
        if body is None:
            errors.append(f"{where}: verbatim-from marker not followed by a "
                          f"code fence")
            continue
        target = REPO / source
        if not target.is_file():
            errors.append(f"{where}: verbatim-from source '{source}' does "
                          f"not exist")
            continue
        want = normalized(body)
        if not want:
            errors.append(f"{where}: verbatim snippet is empty")
            continue
        have = normalized(target.read_text(encoding="utf-8").splitlines())
        n = len(want)
        if not any(have[j : j + n] == want for j in
                   range(len(have) - n + 1)):
            errors.append(
                f"{where}: snippet has drifted from {source} (no "
                f"contiguous match for {n} line(s) starting "
                f"'{want[0][:60]}')"
            )


KINDS_SOURCE = REPO / "src" / "trace" / "trace.hpp"
KINDS_DOC = REPO / "docs" / "OBSERVABILITY.md"
KIND_ROW_RE = re.compile(r'X\(\s*k\w+\s*,\s*(\d+)\s*,\s*"(\w+)"\s*\)')
DOC_KIND_RE = re.compile(r"^\|\s*`(\w+)`\s*\|\s*(\d+)\s*\|")


def source_kinds():
    """{name: value} from the MW_TRACE_KINDS rows."""
    text = KINDS_SOURCE.read_text(encoding="utf-8")
    start = text.find("#define MW_TRACE_KINDS(X)")
    if start < 0:
        return {}
    body = []
    for line in text[start:].splitlines():
        body.append(line)
        if not line.rstrip().endswith("\\"):
            break
    return {name: int(value)
            for value, name in KIND_ROW_RE.findall("\n".join(body))}


def check_kind_table(path, text, errors):
    where = path.relative_to(REPO)
    want = source_kinds()
    if not want:
        errors.append(f"{KINDS_SOURCE.relative_to(REPO)}: no MW_TRACE_KINDS "
                      f"rows found")
        return
    have = {}
    in_table = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if re.match(r"^\|\s*kind\s*\|\s*value\s*\|", line):
            in_table = True
            continue
        if in_table and not line.startswith("|"):
            break
        m = DOC_KIND_RE.match(line) if in_table else None
        if m and m.group(1) in have:
            errors.append(f"{where}:{lineno}: kind table lists "
                          f"`{m.group(1)}` twice")
        elif m:
            have[m.group(1)] = (int(m.group(2)), lineno)
    if not in_table:
        errors.append(f"{where}: no '| kind | value |' table")
        return
    for name, value in want.items():
        if name not in have:
            errors.append(f"{where}: kind table lacks `{name}` ({value})")
    for name, (value, lineno) in have.items():
        if name not in want:
            errors.append(f"{where}:{lineno}: kind table lists `{name}`, "
                          f"which has no MW_TRACE_KINDS row")
        elif want[name] != value:
            errors.append(f"{where}:{lineno}: kind table gives `{name}` "
                          f"value {value}, MW_TRACE_KINDS says {want[name]}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--compiler", default="g++")
    ap.add_argument("files", nargs="*")
    args = ap.parse_args()

    files = [pathlib.Path(f).resolve() for f in args.files] or md_files()
    errors = []
    snippets = 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        check_links(path, text, errors)
        before = len(errors)
        snippet_list = list(cpp_snippets(text))
        verbatims = list(verbatim_blocks(text))
        snippets += len(snippet_list) + len(verbatims)
        check_snippets(path, text, args.compiler, errors)
        check_verbatim(path, text, errors)
        if path == KINDS_DOC:
            check_kind_table(path, text, errors)
        status = "ok" if len(errors) == before else "FAIL"
        print(
            f"{status:4} {path.relative_to(REPO)} "
            f"({len(snippet_list)} compiled, {len(verbatims)} verbatim "
            f"snippet(s))"
        )

    for e in errors:
        print(e, file=sys.stderr)
    print(f"{len(files)} file(s), {snippets} snippet(s), "
          f"{len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
