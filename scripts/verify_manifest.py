#!/usr/bin/env python3
"""Verify vpsim run manifests (sidecar files next to a CSV).

Every bench that writes `--csv FILE` also writes `FILE.manifest.json`
(see src/sim/run_manifest.hpp and docs/VALIDATION.md). This checker
re-derives, for each manifest given on the command line (or found under
a directory):

  1. the CRC-32 of the CSV the manifest describes (the file next to the
     manifest, i.e. the manifest path minus its manifest suffix) and
     its byte count, compared against csvCrc32 / csvBytes;
  2. the manifest's own signature: CRC-32 over the canonical signing
     string rebuilt byte-for-byte from the parsed JSON fields, compared
     against the stored "crc32:XXXXXXXX" signature.

Exit status 0 when every manifest passes, 1 otherwise. Only the Python
standard library is used.
"""

import argparse
import json
import os
import sys
import zlib

REQUIRED_FIELDS = [
    "schema", "gitDescribe", "checkInvariants", "crossCheck",
    "jobTimeout", "fingerprint", "csvFile", "csvBytes", "csvCrc32",
    "signature",
]

SCHEMA = "vpsim-run-manifest 3"
MANIFEST_SUFFIX = ".manifest.json"

def signing_string(manifest):
    """The canonical signing string (see run_manifest.cpp)."""
    return (
        "vpsim-manifest-signing-v3\n"
        f"schema={manifest['schema']}\n"
        f"gitDescribe={manifest['gitDescribe']}\n"
        f"checkInvariants={manifest['checkInvariants']}\n"
        f"crossCheck={manifest['crossCheck']}\n"
        f"jobTimeout={manifest['jobTimeout']}\n"
        f"fingerprint={manifest['fingerprint']}\n"
        f"csvFile={manifest['csvFile']}\n"
        f"csvBytes={manifest['csvBytes']}\n"
        f"csvCrc32={manifest['csvCrc32']}\n"
    )


def check_csv(manifest, manifest_path, problems):
    """The data file next to the manifest must match the checksum taken
    when it was written. The stored csvFile is the path the bench was
    invoked with (possibly relative to a different cwd), so locate the
    CSV from the manifest's own name instead."""
    csv_path = manifest_path[: -len(MANIFEST_SUFFIX)]
    if os.path.basename(manifest["csvFile"]) != os.path.basename(csv_path):
        problems.append(
            f"csvFile '{manifest['csvFile']}' does not name '"
            f"{os.path.basename(csv_path)}'")
    try:
        with open(csv_path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        problems.append(f"unreadable CSV: {error}")
        return
    if len(data) != manifest["csvBytes"]:
        problems.append(
            f"CSV is {len(data)} bytes, manifest says "
            f"{manifest['csvBytes']}")
    crc = f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"
    if crc != manifest["csvCrc32"]:
        problems.append(
            f"CSV CRC-32 is {crc}, manifest says "
            f"{manifest['csvCrc32']}")


def verify(manifest_path):
    """Check one manifest; returns a list of problems (empty = pass)."""
    problems = []
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return [f"unreadable manifest: {error}"]

    # Schema first: an older schema is rejected as such, whatever
    # fields it carries.
    if manifest.get("schema") != SCHEMA:
        return [f"unknown schema '{manifest.get('schema')}'"]
    missing = [f for f in REQUIRED_FIELDS if f not in manifest]
    if missing:
        return [f"missing fields: {', '.join(missing)}"]

    # Signature: the manifest body must not have been edited.
    body = signing_string(manifest).encode("utf-8")
    expected = f"crc32:{zlib.crc32(body) & 0xFFFFFFFF:08x}"
    if manifest["signature"] != expected:
        problems.append(
            f"signature mismatch: manifest says {manifest['signature']},"
            f" body hashes to {expected}")

    if not manifest_path.endswith(MANIFEST_SUFFIX):
        problems.append(f"manifest name should end with {MANIFEST_SUFFIX}")
        return problems
    check_csv(manifest, manifest_path, problems)
    return problems


def collect(paths):
    """Expand directories into the manifests they contain."""
    manifests = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, files in sorted(os.walk(path)):
                manifests.extend(
                    os.path.join(root, name)
                    for name in sorted(files)
                    if name.endswith(MANIFEST_SUFFIX))
        else:
            manifests.append(path)
    return manifests


def main():
    parser = argparse.ArgumentParser(
        description="Verify vpsim run manifests")
    parser.add_argument(
        "paths", nargs="+",
        help="manifest files or directories to scan for *.manifest.json")
    args = parser.parse_args()

    manifests = collect(args.paths)
    if not manifests:
        print("verify_manifest: no manifests found", file=sys.stderr)
        return 1

    failed = 0
    for path in manifests:
        problems = verify(path)
        if problems:
            failed += 1
            print(f"FAIL {path}")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"PASS {path}")
    print(f"verify_manifest: {len(manifests) - failed} of "
          f"{len(manifests)} manifest(s) valid")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
