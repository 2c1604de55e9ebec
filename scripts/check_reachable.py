#!/usr/bin/env python3
"""Fail when a file under src/ is reachable from no program.

Walks quoted #include directives from every source file under the program
directories (examples/, bench/, tools/, perfbench/). A quoted include
resolves against the including file's directory first, then against src/,
as the build's include path does. Reaching a header also reaches the .cpp
of the same name beside it, where its definitions live. Every .cpp or .hpp
under src/ that the walk does not reach is named, and the check fails: a
module whose only caller is its own test is code no program runs.

Usage: check_reachable.py [--repo=DIR]
Exit status: 0 every src/ file is reachable, 1 otherwise.
"""

import re
import sys
from pathlib import Path

PROGRAM_DIRS = ("examples", "bench", "tools", "perfbench")
SUFFIXES = (".cpp", ".hpp")
INCLUDE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"', re.MULTILINE)


def sources(root):
    return sorted(p.resolve() for p in root.rglob("*")
                  if p.suffix in SUFFIXES and p.is_file())


def resolve(name, including, src):
    for base in (including.parent, src):
        candidate = (base / name).resolve()
        if candidate.is_file():
            return candidate
    return None


def reachable(repo):
    src = (repo / "src").resolve()
    todo = [p for d in PROGRAM_DIRS for p in sources(repo / d)]
    seen = set(todo)
    while todo:
        path = todo.pop()
        text = path.read_text(encoding="utf-8", errors="replace")
        deps = [resolve(name, path, src) for name in INCLUDE.findall(text)]
        if path.suffix == ".hpp":
            deps.append(path.with_suffix(".cpp"))
        for dep in deps:
            if dep is not None and dep not in seen and dep.is_file():
                seen.add(dep)
                todo.append(dep)
    return seen


def main(argv):
    repo = Path(__file__).resolve().parent.parent
    for arg in argv[1:]:
        if arg.startswith("--repo="):
            repo = Path(arg.split("=", 1)[1])
        else:
            print(__doc__)
            return 1

    src_files = sources(repo / "src")
    seen = reachable(repo)
    orphans = [p for p in src_files if p not in seen]
    for p in orphans:
        print(f"FAIL: {p.relative_to(repo.resolve())} is reachable from no "
              "program under " + ", ".join(f"{d}/" for d in PROGRAM_DIRS))
    if orphans:
        return 1
    print(f"ok: all {len(src_files)} src/ files are reachable from a program")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
