#!/bin/sh
# Guard for claims that cite a test: every Test*, Benchmark*, Fuzz* and
# Example* name cited in DESIGN.md, EXPERIMENTS.md, README.md and
# docs/*.md must name a test that exists, either in the root module or in
# the bench/ module (listed, never modified). A sub-benchmark suffix after
# "/" is ignored. Without this, deleting or renaming a test leaves the
# prose pointing at nothing and nobody notices.
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}

docs="DESIGN.md EXPERIMENTS.md README.md"
for f in docs/*.md; do
    [ -f "$f" ] && docs="$docs $f"
done
pattern='\b(Test|Benchmark|Fuzz|Example)[A-Z0-9_][A-Za-z0-9_]*'

# shellcheck disable=SC2086 # $docs is a word list of paths
cited=$(grep -ohE "$pattern" $docs | sort -u)
if [ -z "$cited" ]; then
    echo "check_doc_names: no test names cited in $docs" >&2
    exit 1
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
if ! { "$GO" test -list . ./... && (cd bench && "$GO" test -list . ./...); } >"$tmp" 2>&1; then
    cat "$tmp" >&2
    echo "check_doc_names: go test -list failed" >&2
    exit 1
fi
listed=$(grep -E '^(Test|Benchmark|Fuzz|Example)' "$tmp" | sort -u)

missing=$(printf '%s\n' "$cited" | while read -r name; do
    printf '%s\n' "$listed" | grep -qx "$name" || echo "$name"
done)
if [ -n "$missing" ]; then
    echo "check_doc_names: cited test names that no package defines:" >&2
    for name in $missing; do
        # shellcheck disable=SC2086
        grep -nwH "$name" $docs >&2
    done
    exit 1
fi
echo "doc names ok: $(printf '%s\n' "$cited" | wc -l | tr -d ' ') cited test names exist"
