#!/bin/sh
# Checks that nothing in the repository is orphaned: every internal/*
# package must be imported by at least one non-test Go file outside itself
# (the bench/ module counts), every exported function, method, type, const
# and var an internal/* file declares must be used by a non-test Go file
# outside bench/ (production code is what production runs: a symbol only
# tests or bench/ reach moves beside its tests, or goes), every unexported
# function and method an internal/* non-test file declares must be
# referenced by a non-test file of its package (one only tests reach is an
# oracle and belongs in a _test.go; one nothing reaches is dead), and every
# cmd/* must be mentioned in README.md.
# The exported symbols bench/ or another package's tests still need are
# listed, each with the file that needs it and why, in
# .github/orphan-allow.txt; a line there whose symbol is gone, has gained a
# production caller, or is no longer named by its file fails the check too.
# A package only its own tests import, a symbol production never calls, or a
# command nobody documents, is dead weight that still pins every signature it
# touches.  No dependencies beyond POSIX sh + grep/sed/find, so it runs
# identically in CI and locally:
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
# The allow-list: "<pkg>.[<Type>.]<Name> <file> <reason>" lines, keyed as
# <pkg>.<Name>.  Each line must name a file that mentions the symbol.
allow=.github/orphan-allow.txt
allowed=
while read -r entry needer reason; do
    case "$entry" in '' | '#'*) continue ;; esac
    key=$(echo "$entry" | sed 's/^\([^.]*\)\..*\.\([^.]*\)$/\1.\2/')
    if [ -z "$reason" ]; then
        echo "$allow: $entry: want '<symbol> <file that needs it> <reason>'" >&2
        status=1
    elif ! [ -f "$needer" ] || ! grep -v '^[[:space:]]*//' "$needer" | grep -qw "${key##*.}"; then
        echo "$allow: $entry: $needer does not use it" >&2
        status=1
    fi
    allowed="$allowed $key"
done <"$allow"
# Exported symbols: named, outside comments, in a non-test Go file outside
# bench/ (qualified as pkg.Name outside the package, for all but methods),
# or — for the types a constructor returns and the helpers a file calls
# itself — at least twice in the declaring file (once is the declaration).  Methods the runtime or the standard library calls through an
# interface are named nowhere and are exempt.
implicit='Error String Len Less Swap Unwrap MarshalJSON UnmarshalJSON ServeHTTP'
orphans=
for file in $(find internal -name '*.go' -not -name '*_test.go'); do
    dir=$(dirname "$file")
    methods=$(sed -n -e 's/^func ([^)]*) \([A-Z][A-Za-z0-9_]*\)[[(].*/\1/p' "$file" | sort -u)
    names=$(sed -n \
        -e 's/^func \([A-Z][A-Za-z0-9_]*\)[[(].*/\1/p' \
        -e 's/^type \([A-Z][A-Za-z0-9_]*\) .*/\1/p' \
        -e 's/^const \([A-Z][A-Za-z0-9_]*\)[ =].*/\1/p' \
        -e 's/^var \([A-Z][A-Za-z0-9_]*\)[ =].*/\1/p' \
        -e '/^const (/,/^)/s/^[[:space:]][[:space:]]*\([A-Z][A-Za-z0-9_]*\).*/\1/p' \
        -e '/^var (/,/^)/s/^[[:space:]][[:space:]]*\([A-Z][A-Za-z0-9_]*\).*/\1/p' "$file" | sort -u)
    symbols=$(printf '%s\n%s\n' "$methods" "$names" | sed '/^$/d' | sort -u)
    [ -n "$symbols" ] || continue
    # A method counts as used where its name appears outside this file; a
    # package-level name where another file of its package names it, or a
    # file outside the package names it qualified (pkg.Name), so a namesake
    # in another package vouches for nothing.
    used=$( {
        set +e # a grep that finds nothing is not an error here
        [ -z "$methods" ] || find . -name '*.go' -not -name '*_test.go' -not -path './.git/*' \
            -not -path './bench/*' -not -path "./$file" \
            -exec grep -hv '^[[:space:]]*//' {} + | grep -owF -e "$methods"
        [ -z "$names" ] || find "$dir" -maxdepth 1 -name '*.go' -not -name '*_test.go' \
            -not -path "$file" -exec grep -hv '^[[:space:]]*//' {} + | grep -owF -e "$names"
        find . -name '*.go' -not -name '*_test.go' -not -path './.git/*' -not -path './bench/*' \
            -not -path "./$dir/*" -exec grep -hv '^[[:space:]]*//' {} + |
            grep -ow "${dir##*/}\.[A-Z][A-Za-z0-9_]*" | sed "s/^${dir##*/}\.//"
        grep -v '^[[:space:]]*//' "$file" | grep -owF -e "$symbols" | sort | uniq -d
    } | sort -u)
    pkg=$(dirname "${file#internal/}")
    for sym in $symbols; do
        case " $implicit " in *" $sym "*) continue ;; esac
        if ! printf '%s\n' "$used" | grep -qxF "$sym"; then
            case " $allowed " in
            *" $pkg.$sym "*) orphans="$orphans $pkg.$sym" ;;
            *)
                echo "$file: exported $sym has no non-test caller outside bench/" \
                    "(move it beside its tests, delete it, or allow-list it in $allow)" >&2
                status=1
                ;;
            esac
        fi
    done
done
for key in $allowed; do
    case " $orphans " in *" $key "*) continue ;; esac
    echo "$allow: $key is stale: it is gone or has a non-test caller outside bench/" >&2
    status=1
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
