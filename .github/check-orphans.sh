#!/bin/sh
# Checks that nothing in the repository is orphaned: every internal/*
# package must be imported by at least one non-test Go file outside itself
# (the bench/ module counts), and every cmd/* must be mentioned in README.md.
# A package only its own tests import, or a command nobody documents, is
# dead weight that still pins every signature it touches.  No dependencies
# beyond POSIX sh + grep/sed/find, so it runs identically in CI and locally:
#   sh .github/check-orphans.sh
set -eu

cd "$(dirname "$0")/.."

module=$(sed -n 's/^module //p' go.mod)
status=0
for dir in internal/*/; do
    pkg=${dir%/}
    importers=$(find . -name '*.go' -not -name '*_test.go' \
        -not -path './.git/*' -not -path "./$pkg/*" \
        -exec grep -l "\"$module/$pkg\"" {} + | head -n 1)
    if [ -z "$importers" ]; then
        echo "$pkg: imported by no non-test file outside itself" >&2
        status=1
    fi
done
for dir in cmd/*/; do
    cmd=${dir%/}
    if ! grep -Eq "$cmd([^A-Za-z0-9_-]|\$)" README.md; then
        echo "$cmd: not mentioned in README.md" >&2
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "orphan check failed" >&2
fi
exit $status
