#!/usr/bin/env python3
"""Fails if a built qgp library calls libgcc's software popcount.

    python3 tools/check_popcount.py <build dir> <nm> <processor>

On x86-64 the root CMakeLists.txt compiles with -mpopcnt, so every
__builtin_popcountll in the bitsets, vertex sets and ball BFS is one
POPCNT instruction. A libqgp_*.a in <build dir> whose undefined symbols
(`nm -u`) include __popcountdi2 was compiled without it and pays a call
per word. <processor> is CMAKE_SYSTEM_PROCESSOR; on any other processor
the check is skipped (exit 77, ctest's skip code): the call is then the
compiler's own lowering, not a missing flag.
"""

import glob
import os
import subprocess
import sys

SKIP = 77
X86_64 = ("x86_64", "amd64")
SYMBOL = "__popcountdi2"


def main(argv):
    if len(argv) != 4:
        print("usage: check_popcount.py <build dir> <nm> <processor>",
              file=sys.stderr)
        return 2
    build_dir, nm, processor = argv[1:]
    if processor.lower() not in X86_64:
        print("check_popcount: skipped on %s" % processor)
        return SKIP
    libraries = sorted(glob.glob(os.path.join(build_dir, "libqgp_*.a")))
    if not libraries:
        print("check_popcount: no libqgp_*.a in %s" % build_dir, file=sys.stderr)
        return 1
    offenders = []
    for library in libraries:
        done = subprocess.run([nm, "-u", library], capture_output=True, text=True)
        if done.returncode != 0:
            print("check_popcount: %s -u %s failed: %s"
                  % (nm, library, done.stderr.strip()), file=sys.stderr)
            return 1
        if any(line.split()[-1:] == [SYMBOL] for line in done.stdout.splitlines()):
            offenders.append(os.path.basename(library))
    if offenders:
        print("check_popcount: %s called by %s (built without -mpopcnt?)"
              % (SYMBOL, ", ".join(offenders)), file=sys.stderr)
        return 1
    print("check_popcount: %d libraries, no %s" % (len(libraries), SYMBOL))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
