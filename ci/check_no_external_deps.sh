#!/usr/bin/env bash
# Guard: the workspace must stay free of crates.io dependencies so it
# builds hermetically (`cargo build --offline --locked` with an empty
# registry cache). Fails if any non-`llog-*` registry dependency appears
# in a manifest or in Cargo.lock.
#
# Usage: ci/check_no_external_deps.sh   (run from the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

# 1. Manifests: every [dependencies]/[dev-dependencies]/[build-dependencies]
#    entry and every [workspace.dependencies] entry must be an llog-* path
#    crate. Flag the historical offenders by name, and any version-ranged
#    (registry) requirement.
banned='rand|proptest|criterion|parking_lot|bytes|serde|tokio|rayon|crossbeam'
manifests=(Cargo.toml crates/*/Cargo.toml)

if grep -nE "^[[:space:]]*(${banned})[[:space:]]*(=|\.workspace)" "${manifests[@]}"; then
    echo "ERROR: banned external dependency in a manifest (see above)" >&2
    fail=1
fi

# Member crates must take every dependency through the workspace table:
# inside any *dependencies* section the only legal line is
# `llog-<name>.workspace = true`. A stray `path =`/`version =`/inline
# table would bypass the single pinned dependency graph.
if awk '
    /^\[/ { in_deps = ($0 ~ /dependencies\]$/) }
    in_deps && $0 !~ /^\[/ && NF && $0 !~ /^[[:space:]]*#/ {
        if ($0 !~ /^llog-[a-z0-9-]+\.workspace[[:space:]]*=[[:space:]]*true[[:space:]]*$/) {
            printf "%s:%d:%s\n", FILENAME, FNR, $0
            bad = 1
        }
    }
    END { exit bad }
' crates/*/Cargo.toml; then
    : # clean
else
    echo "ERROR: member dependency not of the form llog-*.workspace = true (see above)" >&2
    fail=1
fi

# The root manifest is the one place a path may appear: the
# [workspace.dependencies] table must map each llog crate to its
# in-tree path, and the root package's own dep sections must go through
# the workspace table like everyone else.
if awk '
    /^\[/ {
        ws  = ($0 ~ /^\[workspace\.dependencies\]$/)
        pkg = (!ws && $0 ~ /dependencies\]$/)
    }
    (ws || pkg) && $0 !~ /^\[/ && NF && $0 !~ /^[[:space:]]*#/ {
        ok = 0
        if (ws && $0 ~ /^llog-[a-z0-9-]+[[:space:]]*=[[:space:]]*\{[[:space:]]*path[[:space:]]*=[[:space:]]*"crates\/llog-[a-z0-9-]+"[[:space:]]*\}[[:space:]]*$/)
            ok = 1
        if (pkg && $0 ~ /^llog-[a-z0-9-]+\.workspace[[:space:]]*=[[:space:]]*true[[:space:]]*$/)
            ok = 1
        if (!ok) {
            printf "%s:%d:%s\n", FILENAME, FNR, $0
            bad = 1
        }
    }
    END { exit bad }
' Cargo.toml; then
    : # clean
else
    echo "ERROR: root manifest dependency outside the workspace-path form (see above)" >&2
    fail=1
fi

# 1b. Build scripts are banned outright: a build.rs runs arbitrary code
#     at compile time, which can reach the network or generate sources —
#     both break the hermetic story even with an empty dependency graph.
if find . -name build.rs -not -path './target/*' -not -path './.git/*' | grep .; then
    echo "ERROR: build.rs found — build scripts are banned (see above)" >&2
    fail=1
fi
if grep -nE '^[[:space:]]*build[[:space:]]*=' "${manifests[@]}"; then
    echo "ERROR: explicit build-script key in a manifest (see above)" >&2
    fail=1
fi

# 2. Lockfile: every package must be ours (no `source =` registry lines).
if [[ ! -f Cargo.lock ]]; then
    echo "ERROR: Cargo.lock missing — commit the dependency-free lockfile" >&2
    fail=1
else
    if grep -n '^source = ' Cargo.lock; then
        echo "ERROR: Cargo.lock references a registry source (see above)" >&2
        fail=1
    fi
    if grep -E '^name = ' Cargo.lock | grep -vE '^name = "llog(-[a-z0-9]+)?"'; then
        echo "ERROR: non-llog package in Cargo.lock (see above)" >&2
        fail=1
    fi
fi

# 3. Lockfile sync: the committed Cargo.lock, and bench/Cargo.lock, must
#    exactly match the manifests. `--locked` makes cargo error out instead of rewriting the
#    lockfile, and `--offline` guarantees no registry is ever consulted.
if command -v cargo >/dev/null 2>&1; then
    if ! cargo metadata --locked --offline --format-version 1 >/dev/null; then
        echo "ERROR: Cargo.lock is out of sync with the manifests" >&2
        echo "       (run 'cargo metadata' locally and commit the lockfile)" >&2
        fail=1
    fi
    # bench/ is its own workspace and builds --locked against
    # bench/Cargo.lock, so changing the dependency list of any crate it
    # builds breaks the benchmark. Fail here, not in the benchmark.
    if ! cargo metadata --locked --offline --format-version 1 \
        --manifest-path bench/Cargo.toml >/dev/null; then
        echo "ERROR: bench/Cargo.lock is out of sync with the crates bench/ builds" >&2
        echo "       (their [dependencies] lists must match bench/Cargo.lock)" >&2
        fail=1
    fi
else
    echo "WARN: cargo not found; skipping lockfile sync check" >&2
fi

# 4. CI script hygiene: every ci/*.sh must be executable, carry a bash
#    shebang, parse cleanly, and fail on unset/errored commands — a gate
#    script that silently no-ops is worse than no gate. This keeps new
#    scripts (like the perf-regression gate) honest by construction.
for script in ci/*.sh; do
    if [[ ! -x "$script" ]]; then
        echo "ERROR: $script is not executable (chmod +x)" >&2
        fail=1
    fi
    if ! head -n 1 "$script" | grep -qE '^#!/(usr/bin/env bash|bin/bash)$'; then
        echo "ERROR: $script missing a bash shebang" >&2
        fail=1
    fi
    if ! grep -qE '^set -euo pipefail$' "$script"; then
        echo "ERROR: $script missing 'set -euo pipefail'" >&2
        fail=1
    fi
    if ! bash -n "$script"; then
        echo "ERROR: $script does not parse (bash -n)" >&2
        fail=1
    fi
done

if [[ $fail -ne 0 ]]; then
    exit 1
fi
echo "OK: no external registry dependencies; Cargo.lock is in sync; ci/ scripts are sound"
