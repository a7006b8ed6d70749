#!/usr/bin/env python3
"""Lists the public items of the model crates that no outside caller names.

    python3 tools/pub_surface.py

Run from anywhere inside the repository. An *item* is a `pub` declaration
(`fn`, `struct`, `enum`, `trait`, `type`, `const`, `static`, `union`, `mod`)
or a name a `pub use` re-exports, in a library crate under `crates/*/src`,
outside `#[cfg(test)]` code and outside the crate's `src/bin/`. `pub(crate)`
and narrower items are not public and are not scanned; struct fields and
enum variants are not scanned either.

A crate's *outside callers* are the files that use it as a library:
  - every other crate under `crates/` (sources, tests, benches, binaries);
  - the crate's own `tests/`, `benches/`, `examples/` and `src/bin/`;
  - the root package's `src/`, `tests/` and `examples/`, and `README.md`,
    which the root package runs as a doctest;
  - the benchmark crate's `perfbench/src/` and `perfbench/tests/`.
Doc examples inside the crate's own sources are not outside callers.

An item is *listed* when its name, as a whole word, appears in none of its
crate's outside callers. A word grep cannot tell two items of one name
apart, so an item whose name some outside file mentions for another reason
is not listed: the scan finds public items that surely have no outside
caller, not every one.

The script prints each listed item with its reason from `REASONS` below,
then the number of distinct public names and of public items, and how many
of each are listed. It exits 1 when a listed item's name has no entry in
`REASONS`, or when an entry in `REASONS` names no listed item (so the table
cannot go stale), and 0 otherwise. A listed item either gets narrowed to
`pub(crate)` (after which rustc's `dead_code` lint checks it) or gets a
one-line reason here.
"""

import re
import sys
from pathlib import Path

# Name -> why the item stays `pub` although no outside caller names it.
# Most are types in the signature of a public item that outside callers do
# use: rustc's `private_interfaces` lint (an error under `-D warnings`)
# forbids narrowing them while that item stays public.
REASONS = {
    "AdmissionReport": "type of the public `ServiceReport::admission` field",
    "ArenaCell": "element of `ArenaReport::cells`, which the `arena` binary reads",
    "ArenaReport": "returned by `arena::run_arena`, which the `arena` binary calls",
    "ArenaTrace": "returned by `arena::build_corpus`, which tests/arena_errors.rs calls",
    "CoreStats": "element of `CoreActivity::per_core`, which examples/multi_tenant.rs reads",
    "FigureArgs": "returned by `parse_figure_args`, which the `all_figures` binary calls",
    "FxHasher": "named by the public `FxHashMap` alias",
    "MachineId": "returned by `HostAgent::ensure_mapped`, which tests/fault_injection.rs calls",
    "PatternBreakdown": "returned by `classify_windows`, which leap-bench calls",
    "PipelineStats": "type of the public `RunResult::pipeline` field",
    "RemoteIoResult": "returned by `HostAgent::remote_io`, which leap-datapath calls",
    "StageLatency": "yielded by `PathLatency::iter`, which perfbench walks",
    "SubmitOutcome": "returned by `AsyncPipeline::submit`, which tests/hot_path_alloc.rs calls",
    "TenantId": "returned by `FarMemoryService::register`, which tests and leap-bench call",
    "TenantQosReport": "returned by `TenantQos::into_reports`, which perfbench calls",
    "TenantRegistry": "returned by `FarMemoryService::registry`, which perfbench calls",
    "TrendOutcome": "returned by `find_trend`, which the prefetcher microbenchmark calls",
    "WaveReport": "element of the public `ServiceReport::waves` field",
}

ITEM_RE = re.compile(
    r"\bpub\s+(?:(?:const|async|unsafe|extern(?:\s+\"\s*\")?)\s+)*"
    r"(fn|struct|enum|trait|type|const|static|union|mod)\s+(?:r#)?([A-Za-z_]\w*)"
)
USE_RE = re.compile(r"\bpub\s+use\s+([^;]*);")
CFG_TEST_RE = re.compile(r"#\[cfg\(test\)\]")
INNER_CFG_TEST_RE = re.compile(r"#!\[cfg\(test\)\]")
MOD_DECL_RE = re.compile(r"\bmod\s+([A-Za-z_]\w*)\s*;")
WORD_RE = re.compile(r"[A-Za-z_]\w*")


def blank_comments_and_literals(text):
    """Returns `text` with comments and the insides of string and char
    literals replaced by spaces, keeping every newline and offset."""
    out = list(text)
    i, n = 0, len(text)

    def blank(start, end):
        for k in range(start, end):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end < 0 else end
            blank(i, end)
            i = end
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif (c == "r" or c == "b") and re.match(r"b?r(#*)\"", text[i:i + 260]) and (
            i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")
        ):
            m = re.match(r"b?r(#*)\"", text[i:])
            close = '"' + m.group(1)
            end = text.find(close, i + m.end())
            end = n if end < 0 else end + len(close)
            blank(i + m.end(), end - len(close))
            i = end
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, j)
            i = j + 1
        elif c == "'":
            # A char literal ('x', '\n', '\u{..}') rather than a lifetime.
            m = re.match(r"'(\\u\{[0-9a-fA-F]*\}|\\.|[^\\'])'", text[i:])
            if m:
                blank(i + 1, i + m.end() - 1)
                i += m.end()
            else:
                i += 1
        else:
            i += 1
    return "".join(out)


def item_end(clean, start):
    """Returns the offset just past the item that begins at `start`: its
    first `;` outside brackets, or the `}` closing its first `{`."""
    depth = 0
    i = start
    while i < len(clean):
        c = clean[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == ";" and depth == 0:
            return i + 1
        elif c == "{" and depth == 0:
            braces = 0
            while i < len(clean):
                if clean[i] == "{":
                    braces += 1
                elif clean[i] == "}":
                    braces -= 1
                    if braces == 0:
                        return i + 1
                i += 1
            return len(clean)
        i += 1
    return len(clean)


def test_spans(clean):
    """Offsets of the code under `#[cfg(test)]` as (start, end) pairs, each
    starting at its attribute."""
    spans = []
    for m in CFG_TEST_RE.finditer(clean):
        if spans and m.start() < spans[-1][1]:
            continue
        spans.append((m.start(), item_end(clean, m.end())))
    return spans


def in_spans(offset, spans):
    return any(start <= offset < end for start, end in spans)


def module_file(decl_file, name):
    """The file that `mod name;` declared in `decl_file` loads."""
    if decl_file.name in ("lib.rs", "main.rs", "mod.rs"):
        base = decl_file.parent
    else:
        base = decl_file.parent / decl_file.stem
    for candidate in (base / f"{name}.rs", base / name / "mod.rs"):
        if candidate.exists():
            return candidate
    return None


def library_files(src):
    """Every file of the library rooted at `src/lib.rs`, with whether the
    whole file is test-only (declared under `#[cfg(test)]`, or `#![cfg(test)]`
    inside)."""
    files = {}
    stack = [(src / "lib.rs", False)]
    while stack:
        path, test_only = stack.pop()
        if path in files:
            continue
        clean = blank_comments_and_literals(path.read_text())
        test_only = test_only or bool(INNER_CFG_TEST_RE.search(clean))
        files[path] = (clean, test_only)
        spans = test_spans(clean)
        for m in MOD_DECL_RE.finditer(clean):
            child = module_file(path, m.group(1))
            if child is not None:
                stack.append((child, test_only or in_spans(m.start(), spans)))
    return files


def use_names(tree):
    """The names a `pub use` tree exports (an alias wins; globs export
    nothing nameable)."""
    names = []
    leaf = ""
    for c in tree + ",":
        if c == "{":
            leaf = ""
        elif c in "},":
            words = leaf.split()
            if words and words[-1] not in ("*", "self"):
                names.append(words[-1])
            leaf = ""
        elif c == ":":
            leaf = ""
        else:
            leaf += c
    return [n for n in names if WORD_RE.fullmatch(n)]


def scan_items(crate_dir):
    items = []
    for path, (clean, test_only) in sorted(library_files(crate_dir / "src").items()):
        if test_only:
            continue
        spans = test_spans(clean)
        found = [(m.start(), m.group(1), m.group(2)) for m in ITEM_RE.finditer(clean)]
        for m in USE_RE.finditer(clean):
            found += [(m.start(), "use", name) for name in use_names(m.group(1))]
        for offset, kind, name in found:
            if not in_spans(offset, spans):
                line = clean.count("\n", 0, offset) + 1
                items.append((path, line, kind, name))
    return items


def words_in(paths):
    words = set()
    for path in paths:
        words.update(WORD_RE.findall(path.read_text(errors="replace")))
    return words


def rust_files(*dirs):
    return [p for d in dirs if d.is_dir() for p in sorted(d.rglob("*.rs"))]


def main():
    root = Path(__file__).resolve().parent.parent
    crates = sorted(p for p in (root / "crates").iterdir() if (p / "src" / "lib.rs").exists())
    shared = words_in(
        rust_files(root / "src", root / "tests", root / "examples")
        + rust_files(root / "perfbench" / "src", root / "perfbench" / "tests")
        + [root / "README.md"]
    )
    per_crate_outside = {
        crate: words_in(
            rust_files(crate / "tests", crate / "benches", crate / "examples", crate / "src" / "bin")
        )
        for crate in crates
    }
    crate_words = {crate: words_in(rust_files(crate)) for crate in crates}

    all_items, listed = [], []
    for crate in crates:
        outside = shared | per_crate_outside[crate]
        for other in crates:
            if other != crate:
                outside |= crate_words[other]
        for path, line, kind, name in scan_items(crate):
            item = (path.relative_to(root), line, kind, name)
            all_items.append(item)
            if name not in outside:
                listed.append(item)

    missing = sorted({name for *_, name in listed if name not in REASONS})
    stale = sorted(set(REASONS) - {name for *_, name in listed})
    for path, line, kind, name in listed:
        print(f"{path}:{line}: pub {kind} {name} -- {REASONS.get(name, 'NO REASON')}")
    print(
        f"{len({n for *_, n in all_items})} distinct pub names, {len(all_items)} pub items; "
        f"{len({n for *_, n in listed})} names and {len(listed)} items with no outside caller"
    )
    for name in missing:
        print(f"error: `{name}` has no outside caller and no entry in REASONS", file=sys.stderr)
    for name in stale:
        print(f"error: REASONS entry `{name}` names no listed item", file=sys.stderr)
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
