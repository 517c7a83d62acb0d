#!/usr/bin/env python3
"""Unit tests for tools/pc_sample.py's symbol bucketing.

Feeds crafted `nm -n -C` text and sample lines through the parsing and
bucketing functions: code symbols only, demangled names with spaces,
samples between, at and below symbols, unknown modules, and one symbol
load per module.
"""

import os
import sys
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import pc_sample  # noqa: E402

NM_TEXT = """\
                 U memcpy@GLIBC_2.14
0000000000001000 T main
0000000000001040 t helper(int)
0000000000001100 W qgp::Graph::HasEdge(unsigned int, unsigned int, unsigned int) const
0000000000002000 B counter
0000000000003000 R table
"""


class ParseNmTest(unittest.TestCase):
    def test_keeps_code_symbols_with_spaces(self):
        self.assertEqual(pc_sample.parse_nm(NM_TEXT), [
            (0x1000, "main"),
            (0x1040, "helper(int)"),
            (0x1100, "qgp::Graph::HasEdge(unsigned int, unsigned int, "
                     "unsigned int) const"),
        ])

    def test_sorts_by_address(self):
        text = "0000000000000020 T b\n0000000000000010 T a\n"
        self.assertEqual(pc_sample.parse_nm(text), [(0x10, "a"), (0x20, "b")])


class BucketTest(unittest.TestCase):
    def setUp(self):
        self.loads = []

    def load(self, module):
        self.loads.append(module)
        if module == "/bin/prog":
            return pc_sample.parse_nm(NM_TEXT)
        return [(0x0, "lib_start"), (0x500, "lib_fn")]

    def test_charges_containing_symbol(self):
        lines = [
            "# pc_sample interval_us=1000 samples=7 dropped=0",
            "0x1000 /bin/prog",   # at main's address
            "0x103f /bin/prog",   # last byte before helper
            "0x1040 /bin/prog",   # helper
            "0x5000 /bin/prog",   # past the last code symbol: HasEdge
            "0x0800 /bin/prog",   # below the first symbol
            "0x0600 /lib/x.so",
            "0xdeadbeef ?",
        ]
        counts = pc_sample.bucket(pc_sample.parse_samples(lines), self.load)
        self.assertEqual(counts["main"], 2)
        self.assertEqual(counts["helper(int)"], 1)
        self.assertEqual(counts["qgp::Graph::HasEdge(unsigned int, unsigned "
                                "int, unsigned int) const"], 1)
        self.assertEqual(counts["lib_fn"], 1)
        self.assertEqual(counts[pc_sample.UNKNOWN], 2)
        self.assertEqual(sum(counts.values()), 7)
        self.assertEqual(self.loads, ["/bin/prog", "/lib/x.so"])

    def test_module_without_symbols(self):
        counts = pc_sample.bucket([(0x10, "/stripped")], lambda m: [])
        self.assertEqual(counts, {pc_sample.UNKNOWN: 1})

    def test_table_shares(self):
        counts = pc_sample.bucket(
            pc_sample.parse_samples(["0x1000 /bin/prog"] * 3 +
                                    ["0x1040 /bin/prog"]), self.load)
        table = pc_sample.format_table(counts, top=1).splitlines()
        self.assertEqual(len(table), 3)  # header, one row, total
        self.assertIn("75.0%", table[1])
        self.assertTrue(table[1].endswith("main"))
        self.assertIn("(total)", table[2])


if __name__ == "__main__":
    unittest.main()
