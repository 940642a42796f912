#!/usr/bin/env python3
"""CSV ingest smoke test for the `idlog` CLI.

Generates a 20,000-row company-shaped CSV (CRLF line endings, quoted
employee names holding commas and doubled quotes), runs a one-rule
program over it through `idlog run`, and diffs the printed answer
against a rendering computed here in Python. Then checks that a stray
quote and a 20-digit integer on line 9,999 each make the run exit 1
with an error naming that line.

Usage: python3 tools/csv_ingest_smoke.py BUILD/tools/idlog [WORKDIR]
(WORKDIR defaults to a temporary directory removed at exit.)
"""

import os
import random
import subprocess
import sys
import tempfile

ROWS = 20000
BAD_LINE = 9999
PROGRAM = "rich(N, D) :- emp(N, D, S), S > 50.\n"


def quote(field):
    if "," in field or '"' in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def company(rng):
    rows = []
    for i in range(ROWS):
        name = f"emp{i}"
        if i % 3 == 0:
            name = f"Smith, {name}"
        if i % 5 == 0:
            name = f'{name} "the {i % 7}th"'
        dept = f"dept{rng.randrange(500)}"
        rows.append((name, dept, rng.randrange(101)))
    return rows


def write_csv(path, lines):
    with open(path, "w", newline="") as f:
        f.write("".join(line + "\r\n" for line in lines))


def expected_answer(rows):
    # The CLI prints tuples in value order: sort-u constants by symbol
    # id, which is the order the loader first saw each spelling in (the
    # program has no constants of its own).
    ids = {}
    for name, dept, _ in rows:
        ids.setdefault(name, len(ids))
        ids.setdefault(dept, len(ids))
    answer = sorted({(name, dept) for name, dept, salary in rows
                     if salary > 50},
                    key=lambda t: (ids[t[0]], ids[t[1]]))
    lines = [f"  ({name}, {dept})\n" for name, dept in answer]
    return "".join(lines) + f"({len(answer)} tuples)\n"


def run(idlog, workdir, csv_name):
    return subprocess.run(
        [idlog, "run", os.path.join(workdir, "rich.idl"), "--query", "rich",
         "--csv", "emp=" + os.path.join(workdir, csv_name)],
        capture_output=True, text=True)


def main(idlog, workdir):
    rows = company(random.Random(20000))
    lines = [",".join([quote(name), dept, str(salary)])
             for name, dept, salary in rows]
    with open(os.path.join(workdir, "rich.idl"), "w") as f:
        f.write(PROGRAM)
    write_csv(os.path.join(workdir, "emp.csv"), lines)

    ok = run(idlog, workdir, "emp.csv")
    if ok.returncode != 0:
        sys.exit(f"idlog failed ({ok.returncode}): {ok.stderr}")
    want = expected_answer(rows)
    if ok.stdout != want:
        got, exp = ok.stdout.splitlines(), want.splitlines()
        diff = next((i for i, (g, e) in enumerate(zip(got, exp)) if g != e),
                    min(len(got), len(exp)))
        sys.exit(f"answer differs at line {diff + 1}: got "
                 f"{got[diff:diff + 1]}, want {exp[diff:diff + 1]}")
    print(f"ok: {len(want.splitlines()) - 1} answers over {ROWS} rows")

    for label, bad in (("stray quote", 'emp"x,dept1,7'),
                       ("20-digit integer", "empx,dept1,12345678901234567890")):
        broken = list(lines)
        broken[BAD_LINE - 1] = bad
        write_csv(os.path.join(workdir, "bad.csv"), broken)
        res = run(idlog, workdir, "bad.csv")
        if res.returncode != 1 or f"line {BAD_LINE}:" not in res.stderr:
            sys.exit(f"{label}: want exit 1 naming line {BAD_LINE}, got "
                     f"exit {res.returncode}: {res.stderr.strip()}")
        print(f"ok: {label} -> {res.stderr.strip()}")


if __name__ == "__main__":
    if len(sys.argv) > 2:
        main(sys.argv[1], sys.argv[2])
    else:
        with tempfile.TemporaryDirectory() as tmp:
            main(sys.argv[1], tmp)
