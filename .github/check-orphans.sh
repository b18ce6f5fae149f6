#!/bin/sh
# Checks that nothing in the repository is orphaned: every internal/*
# package must be imported by at least one non-test Go file outside itself
# (the bench/ module counts), every exported function, method and type an
# internal/* file declares must be referenced somewhere besides its own
# declaration (tests, examples and bench/ count), every unexported function
# and method an internal/* non-test file declares must be referenced by a
# non-test file of its package (one only tests reach is an oracle and belongs
# in a _test.go; one nothing reaches is dead), and every cmd/* must be
# mentioned in README.md.
# A package only its own tests import, a symbol nobody calls, or a command
# nobody documents, is dead weight that still pins every signature it
# touches.  No dependencies
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
# Exported symbols: named, outside comments, in another .go file, or — for
# the types a constructor returns and the helpers a file calls itself — at
# least twice in the declaring file (once is the declaration).
# Methods the runtime or the standard library calls through an interface are
# named nowhere and are exempt.
implicit='Error String Len Less Swap Unwrap MarshalJSON UnmarshalJSON ServeHTTP'
for file in $(find internal -name '*.go' -not -name '*_test.go'); do
    symbols=$(sed -n \
        -e 's/^func ([^)]*) \([A-Z][A-Za-z0-9_]*\)[[(].*/\1/p' \
        -e 's/^func \([A-Z][A-Za-z0-9_]*\)[[(].*/\1/p' \
        -e 's/^type \([A-Z][A-Za-z0-9_]*\) .*/\1/p' "$file" | sort -u)
    [ -n "$symbols" ] || continue
    elsewhere=$(find . -name '*.go' -not -path './.git/*' -not -path "./$file" \
        -exec grep -hv '^[[:space:]]*//' {} + | grep -owF -e "$symbols" | sort -u)
    here=$(grep -v '^[[:space:]]*//' "$file" | grep -owF -e "$symbols" | sort | uniq -d)
    for sym in $symbols; do
        case " $implicit " in *" $sym "*) continue ;; esac
        if ! printf '%s\n%s\n' "$elsewhere" "$here" | grep -qxF "$sym"; then
            echo "$file: exported $sym is referenced nowhere" >&2
            status=1
        fi
    done
done
# Unexported functions and methods: named, outside comments, in another
# non-test file of the package, or at least twice in the declaring file.
# Grep-based like the check above: two types sharing a method name vouch for
# each other.
for file in $(find internal -name '*.go' -not -name '*_test.go'); do
    symbols=$(sed -n \
        -e 's/^func ([^)]*) \([a-z_][A-Za-z0-9_]*\)[[(].*/\1/p' \
        -e 's/^func \([a-z_][A-Za-z0-9_]*\)[[(].*/\1/p' "$file" | sort -u)
    [ -n "$symbols" ] || continue
    dir=$(dirname "$file")
    elsewhere=$(find "$dir" -maxdepth 1 -name '*.go' -not -name '*_test.go' -not -path "$file" \
        -exec grep -hv '^[[:space:]]*//' {} + | grep -owF -e "$symbols" | sort -u)
    here=$(grep -v '^[[:space:]]*//' "$file" | grep -owF -e "$symbols" | sort | uniq -d)
    for sym in $symbols; do
        case "$sym" in init|main) continue ;; esac
        if ! printf '%s\n%s\n' "$elsewhere" "$here" | grep -qxF "$sym"; then
            echo "$file: unexported $sym is referenced by no non-test file of its package" >&2
            status=1
        fi
    done
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
