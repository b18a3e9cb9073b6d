#!/usr/bin/env python3
"""Self-tests of the host-time benchmark (run from the repository root).

  python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed, runs the benchmark's own unit
checks (--selftest), runs every workload at tiny scale with tracing off and
on and checks that each emits exactly the declared metrics with their
units and no failed operation, and checks that the benchmark refuses to
run, without printing a result, where the LFI sources are missing.
Exits 0 when every check passes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's own build helper)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = set()
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"}, "workload keys of %s" % w)
        check(NAME_RE.match(w["name"]) is not None,
              "workload name %s" % w["name"])
        check(len(w["why"]) <= 200 and "\n" not in w["why"],
              "why of %s" % w["name"])
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            check(set(m) == keys, "keys of %s" % m.get("name"))
            check(NAME_RE.match(m["name"]) is not None,
                  "metric name %s" % m["name"])
            check(UNIT_RE.match(m["unit"]) is not None,
                  "unit of %s" % m["name"])
            check(m["better"] in ("higher", "lower"),
                  "better of %s" % m["name"])
            check(m["name"] not in names, "duplicate name %s" % m["name"])
            names.add(m["name"])
            if group == "end_to_end":
                check(0 < m["bound"] <= 0.25, "bound of %s" % m["name"])
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and
              m["better"] == "lower" for m in spec["end_to_end"]),
          "setup_s declared")
    return spec


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def smoke(spec):
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            what = "%s trace=%d" % (w["name"], trace)
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 w["name"], "--seed", "7", "--seconds", "1", "--trace",
                 str(trace), "--smoke"],
                capture_output=True, text=True, cwd=ROOT)
            check(p.returncode == 0, what + ": exit code %d" % p.returncode)
            try:
                res = result_of(p.stdout)
            except ValueError:
                res = None
            check(res is not None and set(res) == RESULT_KEYS,
                  what + ": result keys")
            if res is None:
                continue
            check(res["correct"] is True, what + ": correct")
            check(res["failed"] == 0, what + ": failed = %s" % res["failed"])
            check(res["attempted"] >= 1, what + ": attempted")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == declared[trace],
                  what + ": metrics differ from BENCHMARK.json: %s" %
                  sorted(set(got.items()) ^ set(declared[trace].items())))
            print("ok: " + what)


def bare_checkout():
    """A tree holding only BENCHMARK.json and perfbench/ must fail fast."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spec-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=170)
    check(p.returncode != 0, "bare tree: nonzero exit")
    check('"metrics"' not in p.stdout, "bare tree: no result printed")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok: bare tree refused")


def main():
    spec = load_spec()
    run.build()
    p = subprocess.run([run.BINARY, "--selftest"], capture_output=True,
                       text=True)
    sys.stdout.write(p.stdout)
    sys.stderr.write(p.stderr)
    check(p.returncode == 0, "lfi-perfbench --selftest")
    smoke(spec)
    bare_checkout()
    print("selftest: %s" % ("ok" if not failures else
                            "%d failure(s)" % len(failures)))
    sys.exit(0 if not failures else 1)


if __name__ == "__main__":
    main()
