#!/usr/bin/env bash
# Media recovery repairs a damaged store device: run `llogtool demo` and
# `backup`, flip one byte in the middle of one store blob, then require
# `media-recover` and `verify` to exit 0 (and `verify` to refuse the
# damaged directory first).
#
# Usage: ci/media_recover_smoke.sh <llogtool> <blob glob under store/>
#   e.g. ci/media_recover_smoke.sh target/release/llogtool 'ckpt-*.llog'
set -euo pipefail

tool="$1"
pattern="$2"
db="$(mktemp -d)"
trap 'rm -rf "$db"' EXIT

"$tool" demo "$db/db" 200 42
"$tool" backup "$db/db" "$db/backup.llog"
blob="$(compgen -G "$db/db/store/$pattern" | head -n 1)"
[ -n "$blob" ] || { echo "no store blob matches $pattern" >&2; exit 1; }
at=$(( $(stat -c %s "$blob") / 2 ))
byte=$(od -An -tu1 -j "$at" -N 1 "$blob" | tr -d ' ')
printf "$(printf '\\%03o' $(( byte ^ 64 )))" |
    dd of="$blob" bs=1 seek="$at" count=1 conv=notrunc 2>/dev/null
if "$tool" verify "$db/db" >/dev/null 2>&1; then
    echo "verify accepted a damaged $blob" >&2
    exit 1
fi
"$tool" media-recover "$db/db" "$db/backup.llog"
"$tool" verify "$db/db"
