#!/usr/bin/env python3
"""Linker-checked dead code in libkarl.

Builds every non-test binary of the repository (tools, bench, examples,
and perfbench, the end-to-end benchmark package) in a scratch tree at
-O0 with -ffunction-sections -fdata-sections and links them with
-Wl,--gc-sections. It then lists the `karl::` text symbols defined in
libkarl.a, subtracts every symbol some executable kept, and subtracts
the entries of tools/dead_symbols_allowlist.txt. What is left is library
code that no binary reaches; the check fails and names it. It also fails
when an allowlist entry names nothing the library defines, or names only
symbols that some binary now keeps, so the allowlist cannot go stale.

-O0 is required: at -O2 the compiler inlines small live functions into
their callers, drops their out-of-line copies, and they would read as
dead.

Blind spots:
  * Header-only code. An inline function or template that no library
    translation unit instantiates never appears in libkarl.a, so tests
    alone can keep it alive unseen.
  * Virtual functions. A kept vtable references every virtual of its
    class, so an override that no caller dispatches to still counts as
    reached.
  * Internal linkage. Functions in anonymous namespaces or declared
    static are local symbols whose names collide across translation
    units; they are skipped here and left to -Wunused-function.

Allowlist format: one entry per line, `<name> # <reason>`; lines that
start with `#` are comments. The name is either a demangled qualified
function name, covering every overload, e.g. `karl::Engine::ExactBatch`,
or the full demangled signature of one overload. The reason is required.

Usage:
  dead_symbols.py [--build-dir DIR]   build, link and check
  dead_symbols.py --self-test         run the diff on the committed nm
                                      fixtures

Exit status: 0 clean, 1 dead code or a stale allowlist entry, 2 usage
or build failure.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "tools", "dead_symbols_allowlist.txt")
FIXTURE_DIR = os.path.join(ROOT, "tools", "dead_symbols_fixtures")

# Mangled names of functions in namespace karl: nested names (_ZN, with
# optional cv/ref qualifiers) and the local entities inside them (_ZZN),
# e.g. lambdas.
KARL_MANGLED = re.compile(r"^_ZZ?N[rVKRO]*4karl")

# nm symbol types for defined text: global (T) and weak (W, the COMDAT
# copies of inline functions and template instantiations).
TEXT_TYPES = {"T", "W"}

COMPILE_FLAGS = "-ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"


def parse_nm(text: str) -> set[str]:
    """Defined karl:: text symbols (mangled) of `nm` output. Archive
    member headers, undefined and non-text symbols are skipped."""
    symbols = set()
    for line in text.splitlines():
        parts = line.split()
        if len(parts) < 2:
            continue
        kind, name = parts[-2], parts[-1]
        if kind in TEXT_TYPES and KARL_MANGLED.match(name):
            symbols.add(name)
    return symbols


def demangle(names: list[str]) -> dict[str, str]:
    if not names:
        return {}
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def function_name(signature: str) -> str:
    """`karl::a::F(int) const` -> `karl::a::F`: drops the trailing
    parameter list (and what follows it) by matching parentheses from
    the end, so template arguments and lambdas inside stay intact."""
    end = signature.rfind(")")
    if end < 0:
        return signature
    depth = 0
    for i in range(end, -1, -1):
        if signature[i] == ")":
            depth += 1
        elif signature[i] == "(":
            depth -= 1
            if depth == 0:
                return signature[:i]
    return signature


def parse_allowlist(text: str, path: str) -> tuple[dict[str, str], list[str]]:
    """Returns ({name: reason}, [format errors]). The separator is " # ",
    since demangled lambda names contain a bare '#'."""
    entries, errors = {}, []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.partition(" # ")
        name, reason = name.strip(), reason.strip()
        if not sep or not reason:
            errors.append(f"{path}:{number}: entry without a reason: {name}")
        elif name in entries:
            errors.append(f"{path}:{number}: duplicate entry: {name}")
        else:
            entries[name] = reason
    return entries, errors


def diff(library_nm: str, kept_nm: list[str], allowlist_text: str,
         allowlist_path: str) -> list[str]:
    """The check itself: one message per finding, empty when clean."""
    defined = parse_nm(library_nm)
    kept = set()
    for text in kept_nm:
        kept |= parse_nm(text)
    names = demangle(sorted(defined))
    live = {names[m] for m in defined & kept}
    # Constructor and destructor variants (C1/C2, D1/D2) demangle alike;
    # a signature is dead only when no variant of it was kept.
    dead = {names[m] for m in defined - kept} - live

    allow, findings = parse_allowlist(allowlist_text, allowlist_path)

    def covers(entry: str, signature: str) -> bool:
        return entry == signature or entry == function_name(signature)

    for entry in sorted(allow):
        if any(covers(entry, s) for s in dead):
            continue
        if any(covers(entry, s) for s in live):
            findings.append(f"stale allowlist entry (now reachable): {entry}")
        else:
            findings.append(
                f"stale allowlist entry (not defined in libkarl.a): {entry}")
    for signature in sorted(dead):
        if not any(covers(entry, signature) for entry in allow):
            findings.append(f"unreachable from every binary: {signature}")
    return findings


def run(cmd: list[str], **kwargs) -> str:
    return subprocess.run(cmd, check=True, capture_output=True, text=True,
                          **kwargs).stdout


def nm(path: str) -> str:
    return run(["nm", "--defined-only", path])


def configure_and_build(source: str, build: str, jobs: int,
                        extra: list[str], targets: list[str]) -> None:
    run(["cmake", "-S", source, "-B", build,
         "-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
         f"-DCMAKE_CXX_FLAGS={COMPILE_FLAGS}",
         f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}"] + extra)
    cmd = ["cmake", "--build", build, f"-j{jobs}"]
    for target in targets:
        cmd += ["--target", target]
    run(cmd)


def executables(build: str) -> list[str]:
    found = []
    for dirpath, dirnames, filenames in os.walk(build):
        # CMakeFiles holds the compiler-identification probes.
        dirnames[:] = sorted(d for d in dirnames if d != "CMakeFiles")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if not os.access(path, os.X_OK) or os.path.islink(path):
                continue
            with open(path, "rb") as f:
                if f.read(4) == b"\x7fELF":
                    found.append(path)
    return found


def check_tree(build: str) -> int:
    jobs = os.cpu_count() or 1
    main_build = os.path.join(build, "main")
    bench_build = os.path.join(build, "perfbench")
    try:
        configure_and_build(ROOT, main_build, jobs,
                            ["-DKARL_BUILD_TESTS=OFF",
                             "-DKARL_BUILD_BENCHMARKS=ON",
                             "-DKARL_BUILD_EXAMPLES=ON"], [])
        configure_and_build(os.path.join(ROOT, "perfbench"), bench_build,
                            jobs, [], ["perfbench"])
    except subprocess.CalledProcessError as err:
        sys.stderr.write(err.stdout + err.stderr)
        print(f"dead_symbols: build failed: {' '.join(err.cmd)}",
              file=sys.stderr)
        return 2
    library = os.path.join(main_build, "src", "libkarl.a")
    binaries = executables(main_build) + executables(bench_build)
    if not os.path.isfile(library) or not binaries:
        print(f"dead_symbols: no libkarl.a or executables under {build}",
              file=sys.stderr)
        return 2
    with open(ALLOWLIST, encoding="utf-8") as f:
        allow_text = f.read()
    findings = diff(nm(library), [nm(b) for b in binaries], allow_text,
                    os.path.relpath(ALLOWLIST, ROOT))
    for line in findings:
        print(line)
    if findings:
        print(f"dead_symbols: {len(findings)} finding(s) over "
              f"{len(binaries)} binaries", file=sys.stderr)
        return 1
    print(f"dead_symbols: clean ({len(binaries)} binaries)")
    return 0


def self_test() -> int:
    """The fixtures plant one library function no executable keeps and
    two stale allowlist entries (one undefined, one reachable); all three
    must be reported. Nothing else may be: not the allowlisted dead
    function, a kept constructor whose other variant was dropped, a
    non-karl template, a local lambda, an undefined or a data symbol."""
    def read(name: str) -> str:
        with open(os.path.join(FIXTURE_DIR, name), encoding="utf-8") as f:
            return f.read()

    findings = diff(read("libkarl.nm"), [read("kept.nm")],
                    read("allowlist.txt"), "allowlist.txt")
    expected = [
        "stale allowlist entry (not defined in libkarl.a): "
        "karl::server::Client::Gone",
        "stale allowlist entry (now reachable): karl::core::Engine::Tkaq",
        "unreachable from every binary: karl::data::PlantedUnused(int)",
    ]
    status = 0
    for want in expected:
        if want in findings:
            print(f"self-test: reported: {want}")
        else:
            print(f"self-test: NOT REPORTED: {want}", file=sys.stderr)
            status = 1
    for extra in sorted(set(findings) - set(expected)):
        print(f"self-test: unexpected finding: {extra}", file=sys.stderr)
        status = 1
    return status


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="dead_symbols.py",
        description="Fail on libkarl functions that no binary reaches.")
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, "build-dead-symbols"),
                        help="scratch build tree (default: "
                             "build-dead-symbols/ in the repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the diff on the committed nm fixtures")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    return check_tree(os.path.abspath(args.build_dir))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
