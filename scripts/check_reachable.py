#!/usr/bin/env python3
"""Fail when code under src/ is reachable from no program.

File mode (the default) walks quoted #include directives from every source
file under the program directories (examples/, bench/, tools/, perfbench/).
A quoted include resolves against the including file's directory first,
then against src/, as the build's include path does. Reaching a header also
reaches the .cpp of the same name beside it, where its definitions live.
Every .cpp or .hpp under src/ that the walk does not reach is named, and the
check fails: a module whose only caller is its own test is code no program
runs.

Function mode (--functions) reads the link instead. Each BUILD_DIR is a
CMake build tree configured with -O0 -ffunction-sections -fdata-sections and
-Wl,--gc-sections, so every function sits in a section of its own and the
linker drops each one that no program calls. (Without -fdata-sections a
switch's jump table sits in the object's shared .rodata and keeps its
function alive.) Every strong text symbol that a libioguard_*.a in the trees
defines and that no program binary keeps is named, demangled and with its
object file, and the check fails. The programs are the executables directly
under examples/, bench/ and tools/ of each tree, plus ioguard_perfbench at
the top of a perfbench tree (cmake -S perfbench). A tree built without those
flags exits 77: at -O1 and above, inlining hides the calls programs do make.
Functions defined in headers are weak symbols and are not checked.

Neither mode has an allowlist.

Usage: check_reachable.py [--repo=DIR]
       check_reachable.py --functions BUILD_DIR [BUILD_DIR...]
Exit status: 0 everything is reachable, 1 otherwise, 77 when a build tree
lacks the flags function mode needs.
"""

import re
import subprocess
import sys
from pathlib import Path

PROGRAM_DIRS = ("examples", "bench", "tools", "perfbench")
SUFFIXES = (".cpp", ".hpp")
INCLUDE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"', re.MULTILINE)

BUILD_PROGRAM_DIRS = ("examples", "bench", "tools")
PERFBENCH_BINARY = "ioguard_perfbench"
SKIP = 77


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


def check_files(repo):
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


def cache_flags(build):
    """The compile and link flags a build tree's cache gives its sources."""
    cache = {}
    for line in (build / "CMakeCache.txt").read_text().splitlines():
        match = re.match(r"^([A-Za-z0-9_]+):[A-Z]+=(.*)$", line)
        if match:
            cache[match.group(1)] = match.group(2)
    # Both top-level projects default an empty build type to RelWithDebInfo.
    config = (cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo").upper()

    def flags(var):
        return (cache.get(var, "") + " " +
                cache.get(f"{var}_{config}", "")).split()

    return flags("CMAKE_CXX_FLAGS"), flags("CMAKE_EXE_LINKER_FLAGS")


def missing_flags(build):
    cxx, link = cache_flags(build)
    levels = [f for f in cxx if f.startswith("-O")]
    missing = []
    if levels and levels[-1] != "-O0":
        missing.append(f"-O0 (last level is {levels[-1]})")
    for flag in ("-ffunction-sections", "-fdata-sections"):
        if flag not in cxx:
            missing.append(flag)
    if not any("--gc-sections" in f for f in link):
        missing.append("-Wl,--gc-sections")
    return missing


def is_elf(path):
    with path.open("rb") as f:
        return f.read(4) == b"\x7fELF"


def programs(build):
    found = [p for d in BUILD_PROGRAM_DIRS if (build / d).is_dir()
             for p in sorted((build / d).iterdir())
             if p.is_file() and p.stat().st_mode & 0o111 and is_elf(p)]
    perfbench = build / PERFBENCH_BINARY
    if perfbench.is_file():
        found.append(perfbench)
    return found


def nm(path):
    out = subprocess.run(["nm", "-A", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()


def library_functions(build):
    """Strong text symbols of every libioguard_*.a: {symbol: object}."""
    functions = {}
    for archive in sorted(build.rglob("libioguard_*.a")):
        for line in nm(archive):
            # libioguard_x.a:member.cpp.o:ADDRESS T SYMBOL
            location, kind, symbol = line.rsplit(" ", 2)
            if kind != "T":
                continue
            member = location.rsplit(":", 2)[1]
            functions.setdefault(symbol, f"{archive.name}({member})")
    return functions


def linked_symbols(binary):
    return {line.rsplit(" ", 1)[1] for line in nm(binary)}


def demangle(symbols):
    out = subprocess.run(["c++filt"], input="\n".join(symbols) + "\n",
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()


def check_functions(builds):
    for build in builds:
        if not (build / "CMakeCache.txt").is_file():
            print(f"FAIL: {build} is not a CMake build tree")
            return 1
        missing = missing_flags(build)
        if missing:
            print(f"skip: {build} is not built with " + ", ".join(missing) +
                  "; configure with -DCMAKE_BUILD_TYPE=Debug "
                  "-DCMAKE_CXX_FLAGS='-O0 -ffunction-sections -fdata-sections' "
                  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
            return SKIP

    functions = {}
    binaries = []
    for build in builds:
        for symbol, obj in library_functions(build).items():
            functions.setdefault(symbol, obj)
        binaries += programs(build)
    if not functions or not binaries:
        print(f"FAIL: found {len(functions)} library functions and "
              f"{len(binaries)} programs in " +
              ", ".join(str(b) for b in builds) + "; build them first")
        return 1

    linked = set()
    for binary in binaries:
        linked |= linked_symbols(binary)
    dead = sorted(s for s in functions if s not in linked)
    names = demangle(dead)
    for symbol, name in sorted(zip(dead, names), key=lambda p: p[1]):
        print(f"FAIL: {name} [{functions[symbol]}] is linked by none of the "
              f"{len(binaries)} programs")
    if dead:
        return 1
    print(f"ok: all {len(functions)} src/ functions are linked by one of "
          f"{len(binaries)} programs")
    return 0


def main(argv):
    if len(argv) > 1 and argv[1] == "--functions":
        if len(argv) < 3:
            print(__doc__)
            return 1
        return check_functions([Path(a).resolve() for a in argv[2:]])

    repo = Path(__file__).resolve().parent.parent
    for arg in argv[1:]:
        if arg.startswith("--repo="):
            repo = Path(arg.split("=", 1)[1])
        else:
            print(__doc__)
            return 1
    return check_files(repo)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
