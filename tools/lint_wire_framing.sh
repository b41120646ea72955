#!/usr/bin/env bash
# One-wire-framing lint for src/service/ and tools/.
#
# Every qfsd socket writer goes through service::send_all and every reader
# through service::LineReader (src/service/client.cpp). A raw
# ::recv/::send/::read/::write anywhere else in src/service/ or tools/ is
# a new copy of the framing loop; this lint fails on one.
#
#   tools/lint_wire_framing.sh      exit 0 clean, 1 with the offending lines
set -u -o pipefail

cd "$(dirname "$0")/.."

owner=src/service/client.cpp

# file:line of every line inside send_all and LineReader::read (each runs
# from its signature to the closing brace in column 0).
allowed=$(awk -v f="$owner" '
  /^(bool send_all|LineReader::Result LineReader::read)\(/ { on = 1 }
  on { print f ":" FNR }
  on && /^}/ { on = 0 }' "$owner")
if [ -z "$allowed" ]; then
  echo "lint_wire_framing: send_all/LineReader::read not found in $owner" >&2
  exit 1
fi

offending=$(grep -rnE '::(recv|send|read|write)\(' src/service tools |
  grep -vF -f <(sed 's/$/:/' <<<"$allowed"))
if [ -n "$offending" ]; then
  echo "lint_wire_framing: raw socket I/O outside send_all/LineReader" \
       "($owner):" >&2
  echo "$offending" >&2
  exit 1
fi
echo "lint_wire_framing: clean"
