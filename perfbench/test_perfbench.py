#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build the server and the generator, then check that the seed alone
fixes every connection's inputs and that the correctness gate fails on
seeded faults.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
os.chdir(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import run  # noqa: E402

CONNS = {
    "wal-growth": ["writer0", "writer1", "readback"],
    "hot-pair": ["writer0", "writer1", "readback"],
    "snapshot-read": ["writer0", "reader"],
}


def inputs(workload, seed, conn, count=200):
    return run.run([run.GEN, "inputs", "--workload", workload, "--seed", str(seed),
                    "--conn", conn, "--count", str(count)]).stdout


class Inputs(unittest.TestCase):
    def test_seed_fixes_inputs(self):
        for workload, conns in CONNS.items():
            for conn in conns:
                with self.subTest(workload=workload, conn=conn):
                    a = inputs(workload, 5, conn)
                    self.assertEqual(len(a.splitlines()), 200)
                    self.assertEqual(a, inputs(workload, 5, conn))
                    self.assertNotEqual(a, inputs(workload, 6, conn))

    def test_writers_differ(self):
        self.assertNotEqual(inputs("hot-pair", 5, "writer0"), inputs("hot-pair", 5, "writer1"))


class Gate(unittest.TestCase):
    """One short hot-pair trial, then faults seeded into its outputs."""

    @classmethod
    def setUpClass(cls):
        cls.bench = run.Bench("hot-pair", 7, 1.0, False)
        b = cls.bench
        b.gen("setup", "--workload", b.workload, "--seed", b.seed, "--db", b.seed_db)
        tdir = os.path.join(b.dir, "t")
        os.mkdir(tdir)
        cls.res, cls.db, cls.expect = b.load(tdir, setup_only=False)
        cls.tdir = tdir

    @classmethod
    def tearDownClass(cls):
        cls.bench.cleanup()

    def copy(self, name):
        path = os.path.join(self.tdir, name)
        shutil.copyfile(self.db, path)
        shutil.copyfile(self.db + ".wal", path + ".wal")
        return path

    def test_trial_passes(self):
        self.assertEqual(self.res["errors"], [])
        self.assertEqual(self.res["tx_failed"], 0)
        self.assertGreater(self.res["tx_committed"], 0)
        run.run([run.ORION, "fsck", self.db])
        rec = self.copy("ok.odb")
        run.run([run.ORION, "recover", rec])
        run.check_recovered(rec, self.expect)

    def test_tampered_expect_fails(self):
        rec = self.copy("tamper.odb")
        run.run([run.ORION, "recover", rec])
        with open(self.expect) as f:
            lines = f.read().splitlines()
        root, comps = lines[0].split(":")
        for bad in (comps.split()[1:], comps.split() + ["999999"]):
            tampered = os.path.join(self.tdir, "expect-tampered.txt")
            with open(tampered, "w") as f:
                f.write("\n".join(["%s:%s" % (root, " ".join(bad))] + lines[1:]) + "\n")
            with self.assertRaises(run.GateFailure):
                run.check_recovered(rec, tampered)

    def test_corrupt_store_fails_fsck(self):
        bad = self.copy("corrupt.odb")
        with open(bad, "r+b") as f:
            f.seek(os.path.getsize(bad) // 2)
            byte = f.read(1)
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte[0] ^ 0xFF]))
        with self.assertRaises(run.GateFailure):
            run.run([run.ORION, "fsck", bad])


class Contract(unittest.TestCase):
    def test_fails_outside_a_checkout(self):
        """In a directory with only BENCHMARK.json and perfbench/ there is
        nothing to build: the run exits non-zero and prints no result."""
        with tempfile.TemporaryDirectory(dir=HERE) as d:
            shutil.copyfile("BENCHMARK.json", os.path.join(d, "BENCHMARK.json"))
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("tmp*", "__pycache__"))
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hot-pair", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                               cwd=d, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    run.build()
    unittest.main()
