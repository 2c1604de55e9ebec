#!/usr/bin/env python3
"""Validate the JSON report emitted by `ioguard_lint --json=...`.

Checks, with no third-party dependencies:
  * the file parses and identifies itself (tool == "ioguard_lint",
    schema_version == 1);
  * files_scanned is positive (an empty scan means the CI job pointed the
    linter at the wrong directory -- a silent pass, the worst failure mode);
  * every finding carries a known LNTxxx code, a file, a 1-based line, a
    message and a boolean suppressed flag;
  * every suppressed finding carries a non-empty reason (the linter's own
    LNT006 enforces this in-source; this guards the report schema);
  * the active/suppressed counters equal what the findings array says;
  * active findings are zero -- the tree must lint clean. (Suppressed
    findings are fine: they are the audited exceptions.)

Usage: check_lint.py REPORT.json
Exit status: 0 all checks pass, 1 any failure (each failure is printed).
"""

import json
import sys
from pathlib import Path

FAILURES = []

# LNT001-LNT010, as lint/lint.hpp numbers them (kLintCodeCount).
KNOWN_CODES = {f"LNT{n:03d}" for n in range(1, 11)}


def fail(msg):
    FAILURES.append(msg)
    print(f"FAIL: {msg}")


def check_report(path):
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path.name}: cannot parse: {e}")
        return
    if report.get("tool") != "ioguard_lint":
        fail(f"{path.name}: tool is {report.get('tool')!r}, "
             "not 'ioguard_lint'")
        return
    if report.get("schema_version") != 1:
        fail(f"{path.name}: unknown schema_version "
             f"{report.get('schema_version')!r}")
        return
    if not isinstance(report.get("files_scanned"), int) \
            or report["files_scanned"] <= 0:
        fail(f"{path.name}: files_scanned is "
             f"{report.get('files_scanned')!r} — scanned nothing?")

    findings = report.get("findings")
    if not isinstance(findings, list):
        fail(f"{path.name}: findings is not a list")
        return

    active = suppressed = 0
    for i, f in enumerate(findings):
        code = f.get("code")
        if code not in KNOWN_CODES:
            fail(f"{path.name}: finding {i} has unknown code {code!r}")
            continue
        if not f.get("file"):
            fail(f"{path.name}: finding {i} ({code}) has no file")
        if not isinstance(f.get("line"), int) or f["line"] < 1:
            fail(f"{path.name}: finding {i} ({code}) has bad line "
                 f"{f.get('line')!r}")
        if not f.get("message"):
            fail(f"{path.name}: finding {i} ({code}) has no message")
        if not isinstance(f.get("suppressed"), bool):
            fail(f"{path.name}: finding {i} ({code}) has non-boolean "
                 "suppressed flag")
            continue
        if f["suppressed"]:
            suppressed += 1
            if not f.get("reason"):
                fail(f"{path.name}: suppressed finding {i} ({code}) at "
                     f"{f.get('file')}:{f.get('line')} carries no reason")
        else:
            active += 1

    for key, count in (("active", active), ("suppressed", suppressed)):
        if report.get(key) != count:
            fail(f"{path.name}: header says {key}={report.get(key)!r} but "
                 f"the findings array contains {count}")

    for f in findings:
        if isinstance(f.get("suppressed"), bool) and not f["suppressed"]:
            fail(f"{path.name}: ACTIVE {f.get('code')} at "
                 f"{f.get('file')}:{f.get('line')}: {f.get('message')}")

    if not FAILURES:
        print(f"ok: {path.name}: {report['files_scanned']} files, "
              f"{active} active, {suppressed} suppressed")


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 1
    check_report(Path(argv[1]))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
