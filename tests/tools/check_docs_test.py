#!/usr/bin/env python3
"""Unit tests for tools/check_docs.py on a temporary fixture tree.

Runs the checker as a subprocess with the fixture as its repo root and
asserts on the exit code and the references it names: broken markdown
links, backticked repo paths that do not exist, and markdown files that
source comments cite but nobody wrote.
"""

import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
CHECK = os.path.join(REPO_ROOT, "tools", "check_docs.py")

MISSING_DOC = "GONE.md"


class CheckDocsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.root = self.tmp.name
        # A clean tree: every reference below resolves.
        self.write("docs/GUIDE.md", "# Guide\n")
        self.write("src/a.h", "")
        self.write("src/a.cc", "// See docs/GUIDE.md and README.md.\n")
        self.write("src/sub/b.h", "")
        self.write(".gitignore", "build/\n*.o\n")
        self.write("build/CMakeCache.txt", "")
        self.write("tools/run.py", "print('x')  # README.md, at the root\n")
        self.write("README.md", "\n".join([
            "[guide](docs/GUIDE.md#top) and [anchor](#x)",
            "`src/a.h`, `src/a.{h,cc}`, `src/<dir>/b.h`, `src/a.cc:12-14`",
            "`tools/run.py --flag`, `src/sub/`",
            # Not repo paths: ignored build outputs, absolute paths,
            # ratios.
            "`build/qgp_cli`, `/tmp/g.txt`, `count/query`",
            "```",
            "src/fenced/is/not/checked.h",
            "```",
            "",
        ]))

    def write(self, rel, text):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)

    def run_check(self):
        return subprocess.run([sys.executable, CHECK, self.root],
                              capture_output=True, text=True)

    def assert_flags(self, *needles):
        result = self.run_check()
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        for needle in needles:
            self.assertIn(needle, result.stdout)

    def test_clean_tree_passes(self):
        result = self.run_check()
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("OK", result.stdout)

    def test_broken_link_fails(self):
        self.write("docs/more.md", "[x](missing.md)\n")
        self.assert_flags("docs/more.md: [missing.md]")

    def test_missing_backticked_path_fails(self):
        self.write("docs/more.md", "`src/gone.h` and `src/a.{h,cpp}`\n")
        self.assert_flags("`src/gone.h`", "no such path: src/a.cpp")

    def test_history_at_the_root_may_name_deleted_paths(self):
        self.write("NOTES.md", "Deleted `src/gone.h`.\n")
        result = self.run_check()
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_comment_citing_missing_markdown_fails(self):
        self.write("src/c.cc", "int x;  // see " + MISSING_DOC + "\n")
        self.write("tests/t.py", "x = 1  # see " + MISSING_DOC + "\n")
        self.write("bench/d.h", "/* see\n   " + MISSING_DOC + " */\n")
        self.assert_flags("src/c.cc: " + MISSING_DOC,
                          "tests/t.py: " + MISSING_DOC,
                          "bench/d.h: " + MISSING_DOC)

    def test_string_literals_are_not_comments(self):
        self.write("src/c.cc",
                   "const char* s = \"// " + MISSING_DOC + "\";\n")
        result = self.run_check()
        self.assertEqual(result.returncode, 0, result.stdout)


if __name__ == "__main__":
    unittest.main()
