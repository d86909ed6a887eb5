#!/usr/bin/env python3
"""Reachability gate: every src/ function has a workload caller.

Usage:
    scripts/check_reach.py [--jobs N]

Builds the workload binaries (uvolt_bench, uvolt_perfbench and the six
examples) in their own build directory, build-reach/, with every
function in its own section, no inlining and no identical-code folding,
and links them with --gc-sections. A src/ function the linker keeps in
no binary is reached by no workload: only tests (or nothing) call it.

The gate compares the functions the src/ archives define (nm -C) with
those the linked binaries keep. Functions are named by their qualified
name without parameters or template arguments, so one entry covers
every overload and instantiation; compiler clones (.constprop, .isra,
.part, .cold) count as their origin.

Every unreached uvolt:: function must be in the allow-list,
scripts/reach_allow.txt, one entry a line: the qualified name,
whitespace, and the reason it stays. The gate prints each unreached
function with its reason, and fails on an unreached function with no
entry, on an entry with no reason, and on a stale entry (its function
is now reached or gone).

Blind spots:
- a virtual function stays alive through its vtable;
- a header function that no library translation unit emits is
  invisible;
- a function that is declared but never defined is invisible, since
  the scan reads defined symbols only (a caller would fail to link);
- overloads share one name, so an unreached overload hides behind a
  reached one of the same name.

Exit status: 0 clean, 1 unreached or stale entries, 2 bad input.
"""

import argparse
import os
import re
import subprocess
import sys

WORKLOADS = [
    "uvolt_bench",
    "uvolt_perfbench",
    "characterize_board",
    "fvm_cache",
    "heat_chamber",
    "nn_undervolt",
    "quickstart",
    "serve_demo",
]
REACH_FLAGS = "-ffunction-sections -fno-inline -fno-ipa-icf"
BUILD_DIR = "build-reach"
ALLOW_LIST = "scripts/reach_allow.txt"
# Compiler clones and ABI tags name their origin function.
CLONE = re.compile(r" ?\[(clone|abi:)[^\]]*\]")
# Brackets and spaces inside an operator's name or "(anonymous
# namespace)", hidden while parameters and template arguments are
# stripped.
HIDE = str.maketrans("<>()[] ", "\x01\x02\x03\x04\x05\x06\x07")
SHOW = str.maketrans("\x01\x02\x03\x04\x05\x06\x07", "<>()[] ")
ANONYMOUS = "(anonymous namespace)"


def strip_brackets(text, open_char, close_char):
    """Drop every balanced open_char...close_char group from text."""
    out, depth = [], 0
    for ch in text:
        if ch == open_char:
            depth += 1
        elif ch == close_char and depth:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def qualified_name(symbol):
    """'int uvolt::a::f<T>(int) const' -> 'uvolt::a::f', else None."""
    symbol = CLONE.sub("", symbol).replace(ANONYMOUS,
                                           ANONYMOUS.translate(HIDE))
    # Keep operator names whole before brackets are dropped.
    symbol = re.sub(r"operator(<<=?|>>=?|<=>|<=?|>=?|->|\(\)|\[\])",
                    lambda m: "operator" + m.group(1).translate(HIDE),
                    symbol)
    bare = strip_brackets(symbol, "<", ">")
    head = bare.split("(", 1)[0].strip()
    # Drop a leading return type ("std::string uvolt::f").
    head = head.rsplit(" ", 1)[-1].lstrip("*&")
    if not head.startswith("uvolt::"):
        return None
    return head.translate(SHOW)


def text_symbols(paths, defined_types):
    """Qualified uvolt:: function names nm reports in paths."""
    names = set()
    output = subprocess.run(
        ["nm", "-C", "--defined-only", *paths], check=True,
        capture_output=True, text=True).stdout
    for line in output.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in defined_types:
            continue
        name = qualified_name(parts[2])
        if name:
            names.add(name)
    return names


def load_allow(path):
    """{name: reason} from the allow-list; problems as a list."""
    allow, problems = {}, []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # A name's one space is the one in "(anonymous namespace)".
            fields = line.replace(ANONYMOUS, ANONYMOUS.translate(HIDE))
            fields = fields.split(None, 1)
            name = fields[0].translate(SHOW)
            if len(fields) < 2:
                problems.append(f"{path}:{number}: '{name}' has no reason")
                continue
            allow[name] = fields[1]
    return allow, problems


def build(build_dir, jobs):
    source = os.getcwd()
    subprocess.run(
        ["cmake", "-B", build_dir, "-S", source,
         f"-DCMAKE_PROJECT_INCLUDE={source}/perfbench/cmake/attach.cmake",
         f"-DCMAKE_CXX_FLAGS={REACH_FLAGS}",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"],
        check=True, stdout=subprocess.DEVNULL)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(jobs), "--target",
         *WORKLOADS], check=True, stdout=subprocess.DEVNULL)


def find_outputs(build_dir):
    """The src/ archives (build_dir/src only: tests/ builds archives
    too) and the workload binaries."""
    archives, binaries = [], {}
    for root, _, files in os.walk(build_dir):
        in_src = os.path.relpath(root, build_dir).split(os.sep)[0] == "src"
        for name in files:
            path = os.path.join(root, name)
            if in_src and name.startswith("libuvolt_") and name.endswith(".a"):
                archives.append(path)
            elif name in WORKLOADS and os.access(path, os.X_OK):
                binaries[name] = path
    missing = sorted(set(WORKLOADS) - set(binaries))
    if missing or not archives:
        raise SystemExit(f"check_reach: build left no "
                         f"{missing or 'src/ archives'}")
    return sorted(archives), [binaries[name] for name in WORKLOADS]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--jobs", type=int, default=os.cpu_count())
    args = parser.parse_args()

    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          ".."))
    build(BUILD_DIR, args.jobs)
    archives, binaries = find_outputs(BUILD_DIR)
    defined = text_symbols(archives, "TtWw")
    kept = text_symbols(binaries, "TtWw")
    unreached = sorted(defined - kept)

    try:
        allow, problems = load_allow(ALLOW_LIST)
    except OSError as error:
        print(f"check_reach: {error}", file=sys.stderr)
        return 2
    for name in unreached:
        print(f"{name}  {allow.get(name, '(not allowed)')}")
    for name in unreached:
        if name not in allow:
            problems.append(f"unreached by every workload: {name}")
    for name in sorted(set(allow) - set(unreached)):
        problems.append(f"stale allow-list entry (reached or gone): "
                        f"{name}")

    print(f"check_reach: {len(defined)} src/ functions, "
          f"{len(unreached)} unreached, {len(allow)} allowed")
    for problem in problems:
        print(f"check_reach: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
