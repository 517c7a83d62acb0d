#!/usr/bin/env python3
"""Buckets pc_sample output by containing symbol.

Reads the "<offset-hex> <module-path>" lines that tools/pc_sample.c
writes, loads each module's symbols with `nm -n -C`, and charges every
sample to the last symbol at or below its offset. Prints one row per
symbol, most samples first:

    python3 tools/pc_sample.py samples.txt [more.txt ...] [--top 30]

Several files (one per run or per process) add up. Stripped modules
fall back to their dynamic symbols (`nm -D`), so a sample in a system
library's internal function is charged to the exported symbol before it.
Samples with no module, or below a module's first symbol, are charged
to "?". Bucket before rebuilding the sampled program: the offsets are
only valid against the exact binary that ran.
"""

import argparse
import bisect
import collections
import subprocess
import sys

UNKNOWN = "?"
# nm symbol types that mark code: text, weak and indirect functions.
CODE_TYPES = set("TtWwi")


def parse_nm(text):
    """Returns [(address, name)] for the code symbols in `nm -n -C` output,
    sorted by address. Demangled names may contain spaces."""
    symbols = []
    for line in text.splitlines():
        parts = line.split(None, 2)
        if len(parts) != 3 or parts[1] not in CODE_TYPES:
            continue
        try:
            address = int(parts[0], 16)
        except ValueError:
            continue
        symbols.append((address, parts[2]))
    symbols.sort(key=lambda s: s[0])
    return symbols


def parse_samples(lines):
    """Yields (offset, module) for each sample line; skips comments."""
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        offset, _, module = line.partition(" ")
        yield int(offset, 16), module


def containing_symbol(addresses, symbols, offset):
    """The name of the last symbol at or below `offset`, or UNKNOWN;
    `addresses` lists the addresses of `symbols`."""
    i = bisect.bisect_right(addresses, offset)
    return symbols[i - 1][1] if i > 0 else UNKNOWN


def bucket(samples, load_symbols):
    """Counts samples per containing symbol. `load_symbols(module)` returns
    the module's sorted (address, name) list; it is called once per
    module."""
    cache = {}
    counts = collections.Counter()
    for offset, module in samples:
        if module == UNKNOWN:
            counts[UNKNOWN] += 1
            continue
        if module not in cache:
            symbols = load_symbols(module)
            cache[module] = ([address for address, _ in symbols], symbols)
        counts[containing_symbol(*cache[module], offset)] += 1
    return counts


def nm_symbols(module):
    """The module's code symbols; the dynamic table when it is stripped
    (as system libraries are)."""
    for flags in (["-n", "-C"], ["-D", "-n", "-C"]):
        try:
            out = subprocess.run(["nm"] + flags + [module], check=True,
                                 capture_output=True, text=True).stdout
        except (OSError, subprocess.CalledProcessError):
            continue
        symbols = parse_nm(out)
        if symbols:
            return symbols
    return []


def format_table(counts, top):
    total = sum(counts.values())
    rows = ["%8s %7s  %s" % ("samples", "share", "symbol")]
    for name, n in counts.most_common(top):
        rows.append("%8d %6.1f%%  %s" % (n, 100.0 * n / total, name))
    rows.append("%8d %6.1f%%  (total)" % (total, 100.0 if total else 0.0))
    return "\n".join(rows)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--top", type=int, default=40,
                        help="rows to print (default 40)")
    args = parser.parse_args(argv)
    samples = []
    for path in args.files:
        with open(path) as fh:
            samples.extend(parse_samples(fh))
    if not samples:
        print("no samples", file=sys.stderr)
        return 1
    print(format_table(bucket(samples, nm_symbols), args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
